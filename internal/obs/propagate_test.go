package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

func TestInjectExtractRoundTrip(t *testing.T) {
	c := NewCollector(Options{Trace: true})
	Install(c)
	defer Install(nil)

	ctx, sp := Start(context.Background(), "hop.client")
	h := make(http.Header)
	Inject(h, "trace-42", sp)
	if got := h.Get(HeaderTraceID); got != "trace-42" {
		t.Fatalf("trace id header %q", got)
	}
	rp, ok := Extract(h)
	if !ok || rp.TraceID != "trace-42" || !rp.HasTid || rp.Tid != sp.Tid() {
		t.Fatalf("extract %+v ok=%v, want tid %d", rp, ok, sp.Tid())
	}

	// The joined span adopts the sender's track and tags the trace id.
	_, joined := StartRemote(context.Background(), "hop.server", rp)
	if joined.Tid() != sp.Tid() {
		t.Fatalf("joined span tid %d, want %d", joined.Tid(), sp.Tid())
	}
	joined.End()
	sp.End()
	_ = ctx

	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Tid  uint64            `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	var serverTagged bool
	for _, ev := range tf.TraceEvents {
		if ev.Name == "hop.server" {
			serverTagged = ev.Args["trace_id"] == "trace-42" && ev.Tid == sp.Tid()
		}
	}
	if !serverTagged {
		t.Fatalf("hop.server event missing trace_id tag or adopted tid: %s", buf.String())
	}
}

func TestInjectNilSpanStillPropagatesTraceID(t *testing.T) {
	h := make(http.Header)
	Inject(h, "t1", nil) // tracing disabled on the sender
	if h.Get(HeaderParentTid) != "" {
		t.Fatal("nil span must not claim a track")
	}
	rp, ok := Extract(h)
	if !ok || rp.TraceID != "t1" || rp.HasTid {
		t.Fatalf("extract %+v ok=%v", rp, ok)
	}
}

func TestStartRemoteDisabledPath(t *testing.T) {
	Install(nil)
	ctx := context.Background()
	got, sp := StartRemote(ctx, "x", RemoteParent{TraceID: "t", Tid: 7, HasTid: true})
	if got != ctx || sp != nil {
		t.Fatal("disabled StartRemote must return the original context and a nil span")
	}
	sp.End() // must be a no-op
}

func TestExtractAbsent(t *testing.T) {
	if rp, ok := Extract(make(http.Header)); ok || rp.TraceID != "" || rp.HasTid {
		t.Fatalf("extract of empty headers: %+v ok=%v", rp, ok)
	}
}

func TestMergeTraceFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, span string, tid uint64) string {
		c := NewCollector(Options{Trace: true})
		Install(c)
		_, sp := StartRemote(context.Background(), span, RemoteParent{TraceID: "tr", Tid: tid, HasTid: true})
		sp.End()
		Install(nil)
		path := filepath.Join(dir, name)
		if err := c.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	gw := write("gw.json", "gateway.proxy", 9)
	rep := write("replica.json", "serve.forward", 9)

	out := filepath.Join(dir, "merged.json")
	if err := MergeTraceFiles(out, []string{gw, rep}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Pid  int               `json:"pid"`
			Tid  uint64            `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	pids := make(map[string]int)
	names := make(map[int]string)
	tracePids := make(map[int]bool)
	for _, ev := range tf.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			names[ev.Pid] = ev.Args["name"]
		case ev.Ph == "X":
			pids[ev.Name] = ev.Pid
			if ev.Args["trace_id"] == "tr" {
				tracePids[ev.Pid] = true
			}
		}
	}
	if pids["gateway.proxy"] != 1 || pids["serve.forward"] != 2 {
		t.Fatalf("events not re-homed per input: %v", pids)
	}
	// One request's trace_id must survive the merge under both
	// processes: the cross-hop proof a merged trace exists for.
	if !tracePids[1] || !tracePids[2] {
		t.Fatalf("trace_id \"tr\" tagged under pids %v, want both 1 and 2", tracePids)
	}
	if names[1] != "gw" || names[2] != "replica" {
		t.Fatalf("process_name metadata %v", names)
	}

	if err := MergeTraceFiles(filepath.Join(dir, "none.json"), nil); err == nil {
		t.Fatal("merge of zero inputs must fail")
	}
}
