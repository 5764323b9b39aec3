package traind

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cachebox/internal/cachesim"
	"cachebox/internal/core"
	"cachebox/internal/heatmap"
	"cachebox/internal/serve"
	"cachebox/internal/store"
	"cachebox/internal/stream"
	"cachebox/internal/workload"
)

// tinyModelCfg is the miniature architecture the service tests train:
// 16×16 to match the test dataset's heatmap geometry.
func tinyModelCfg() core.Config {
	c := core.DefaultConfig()
	c.ImageSize = 16
	c.NGF = 4
	c.NDF = 4
	c.DLayers = 2
	c.CondHidden = 8
	c.CondChannels = 4
	c.Seed = 3
	return c
}

// buildTestDataset streams a small dataset into st and returns its
// manifest digest.
func buildTestDataset(t *testing.T, st *store.Store) string {
	t.Helper()
	hm := heatmap.DefaultConfig()
	hm.Height, hm.Width = 16, 16
	hm.WindowInstr = 120
	benches := workload.SpecLike(2, 2, 1500).Benchmarks[:2]
	cfgs := []cachesim.Config{{Sets: 64, Ways: 12, BlockSize: 64, Policy: cachesim.PolicyLRU}}
	_, sm, err := stream.Build(context.Background(), st, benches, cfgs,
		stream.BuildConfig{Name: "traind-test", Heatmap: hm, MaxWindows: 6})
	if err != nil {
		t.Fatal(err)
	}
	return sm.Digest
}

// newTestService boots a traind server over a fresh store with a
// dataset already built, returning the server, its base URL, the store
// and the dataset digest.
func newTestService(t *testing.T) (*Server, string, *store.Store, string) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	digest := buildTestDataset(t, st)
	s, err := New(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts.URL, st, digest
}

// jobSpec renders a submission body for the test dataset.
func jobSpec(t *testing.T, name, digest string, epochs, shards int) string {
	t.Helper()
	mc := tinyModelCfg()
	spec, err := json.Marshal(JobRequest{
		Name:  name,
		Model: &mc,
		Train: core.TrainConfig{
			Epochs:    epochs,
			BatchSize: 4,
			Seed:      1,
			Dataset:   core.DatasetSource{Kind: core.DatasetStream, Dataset: digest},
			Parallel:  core.Parallelism{Shards: shards},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(spec)
}

// do issues one request and returns status + trimmed body.
func do(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	//lint:ignore unchecked-error test teardown of a fully-read response body
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, strings.TrimSpace(string(raw))
}

// awaitJob polls a job until it reaches a terminal state.
func awaitJob(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		code, body := do(t, http.MethodGet, base+"/v1/jobs/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("GET job %s: status %d body %s", id, code, body)
		}
		var st JobStatus
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		if terminal(st.State) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestJobLifecycleTrainsAndPublishes is the service e2e: a submitted
// job trains a sharded tiny model from the streamed dataset, publishes
// it into the store, and a store-backed serve registry hot-loads it and
// answers a prediction — train-to-serve with no restart in between.
func TestJobLifecycleTrainsAndPublishes(t *testing.T) {
	_, base, st, digest := newTestService(t)

	code, body := do(t, http.MethodPost, base+"/v1/jobs", jobSpec(t, "m16", digest, 2, 2))
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d body %s", code, body)
	}
	var js JobStatus
	if err := json.Unmarshal([]byte(body), &js); err != nil {
		t.Fatal(err)
	}
	if js.ID != "j1" || js.Name != "m16" || js.Epochs != 2 || js.Shards != 2 {
		t.Fatalf("accepted job %+v", js)
	}

	final := awaitJob(t, base, js.ID)
	if final.State != StateSucceeded {
		t.Fatalf("job ended %s (error %q)", final.State, final.Error)
	}
	if final.EpochsDone != 2 {
		t.Fatalf("epochs_done = %d, want 2", final.EpochsDone)
	}
	if final.ModelDigest == "" || final.ModelSHA256 == "" {
		t.Fatalf("succeeded job carries no published model reference: %+v", final)
	}

	// The published entry must load into a store-backed serving registry
	// and answer a prediction.
	reg, err := serve.NewRegistryFromStore(st.Root())
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(reg, serve.Config{})
	t.Cleanup(srv.Close)
	hts := httptest.NewServer(srv)
	t.Cleanup(hts.Close)
	pix := make([]float32, 16*16)
	for i := range pix {
		pix[i] = float32((i*7)%23) / 2
	}
	preq, err := json.Marshal(serve.PredictRequest{
		Model:  "m16",
		Access: serve.HeatmapJSON{H: 16, W: 16, Pix: pix},
		Sets:   64, Ways: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	code, body = do(t, http.MethodPost, hts.URL+"/v1/predict", string(preq))
	if code != http.StatusOK {
		t.Fatalf("predict against traind-trained model: status %d body %s", code, body)
	}
	var pr serve.PredictResponse
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Model != "m16" || pr.HitRate < 0 || pr.HitRate > 1 {
		t.Fatalf("predict response %+v", pr)
	}

	// Retrain under a different recipe: the registry's hot reload must
	// pick up the newer entry for the same name without a restart.
	code, body = do(t, http.MethodPost, base+"/v1/jobs", jobSpec(t, "m16", digest, 3, 1))
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: status %d body %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &js); err != nil {
		t.Fatal(err)
	}
	second := awaitJob(t, base, js.ID)
	if second.State != StateSucceeded {
		t.Fatalf("second job ended %s (error %q)", second.State, second.Error)
	}
	if second.ModelDigest == final.ModelDigest {
		t.Fatal("different recipe published the same store entry")
	}
	sum, err := reg.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Replaced) != 1 || sum.Replaced[0] != "m16" {
		t.Fatalf("hot reload after retrain: %+v, want m16 replaced", sum)
	}
}

// TestOneJobAtATime pins the single-slot policy: while a job trains,
// submissions are refused with 409/busy, and DELETE cancels the run.
func TestOneJobAtATime(t *testing.T) {
	_, base, _, digest := newTestService(t)

	// A long job holds the slot; 500 epochs never finish before the
	// cancel below.
	code, body := do(t, http.MethodPost, base+"/v1/jobs", jobSpec(t, "slow", digest, 500, 1))
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d body %s", code, body)
	}
	var js JobStatus
	if err := json.Unmarshal([]byte(body), &js); err != nil {
		t.Fatal(err)
	}

	code, body = do(t, http.MethodPost, base+"/v1/jobs", jobSpec(t, "other", digest, 1, 1))
	if code != http.StatusConflict {
		t.Fatalf("second submit: status %d body %s, want 409", code, body)
	}
	var er errorResponse
	if err := json.Unmarshal([]byte(body), &er); err != nil || er.Error.Code != CodeBusy {
		t.Fatalf("second submit body %s, want envelope code %q", body, CodeBusy)
	}

	code, body = do(t, http.MethodDelete, base+"/v1/jobs/"+js.ID, "")
	if code != http.StatusOK {
		t.Fatalf("cancel: status %d body %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &js); err != nil {
		t.Fatal(err)
	}
	if js.State != StateCanceled {
		t.Fatalf("canceled job state %q, want %q", js.State, StateCanceled)
	}

	// The slot is free again.
	code, body = do(t, http.MethodPost, base+"/v1/jobs", jobSpec(t, "next", digest, 1, 1))
	if code != http.StatusAccepted {
		t.Fatalf("post-cancel submit: status %d body %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &js); err != nil {
		t.Fatal(err)
	}
	if got := awaitJob(t, base, js.ID); got.State != StateSucceeded {
		t.Fatalf("post-cancel job ended %s (error %q)", got.State, got.Error)
	}

	// All three jobs are listed in submission order.
	code, body = do(t, http.MethodGet, base+"/v1/jobs", "")
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	var list []JobStatus
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 || list[0].Name != "slow" || list[1].Name != "other" || list[2].Name != "next" {
		// "other" was refused, so only two jobs exist.
		if len(list) != 2 || list[0].Name != "slow" || list[1].Name != "next" {
			t.Fatalf("job list %+v", list)
		}
	}
}

// TestJobResumesFromCheckpoint: a canceled job that checkpointed
// resumes from its last epoch when resubmitted with a resume policy,
// finishing with the full epoch count but without retraining the
// completed epochs.
func TestJobResumesFromCheckpoint(t *testing.T) {
	_, base, _, digest := newTestService(t)

	mc := tinyModelCfg()
	submit := func(resume string) JobStatus {
		t.Helper()
		spec, err := json.Marshal(JobRequest{
			Name:  "resumable",
			Model: &mc,
			Train: core.TrainConfig{
				Epochs:    30,
				BatchSize: 4,
				Seed:      1,
				Dataset:   core.DatasetSource{Kind: core.DatasetStream, Dataset: digest},
				Checkpoint: core.CheckpointPolicy{
					Every:  1,
					Resume: resume,
				},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		code, body := do(t, http.MethodPost, base+"/v1/jobs", string(spec))
		if code != http.StatusAccepted {
			t.Fatalf("submit: status %d body %s", code, body)
		}
		var js JobStatus
		if err := json.Unmarshal([]byte(body), &js); err != nil {
			t.Fatal(err)
		}
		return js
	}

	js := submit("")
	// Let at least one epoch checkpoint land, then cancel.
	deadline := time.Now().Add(time.Minute)
	for {
		code, body := do(t, http.MethodGet, base+"/v1/jobs/"+js.ID, "")
		if code != http.StatusOK {
			t.Fatalf("poll: status %d body %s", code, body)
		}
		if err := json.Unmarshal([]byte(body), &js); err != nil {
			t.Fatal(err)
		}
		if js.EpochsDone >= 1 || terminal(js.State) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never completed an epoch")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !terminal(js.State) {
		// The tiny job may race to completion before the cancel lands;
		// a 409 job_done just means it finished on its own.
		if code, body := do(t, http.MethodDelete, base+"/v1/jobs/"+js.ID, ""); code != http.StatusOK && code != http.StatusConflict {
			t.Fatalf("cancel: status %d body %s", code, body)
		}
		js = awaitJob(t, base, js.ID)
	}
	if js.State == StateFailed {
		t.Fatalf("first run failed: %s", js.Error)
	}
	if js.EpochsDone >= 30 {
		t.Skipf("first run finished all epochs before cancel landed (done=%d); resume path not exercised", js.EpochsDone)
	}

	// Resubmit with opportunistic resume: the run continues from the
	// checkpointed epoch and reports full progress.
	js = submit("auto")
	final := awaitJob(t, base, js.ID)
	if final.State != StateSucceeded {
		t.Fatalf("resumed job ended %s (error %q)", final.State, final.Error)
	}
	if final.EpochsDone != 30 {
		t.Fatalf("resumed job epochs_done = %d, want 30", final.EpochsDone)
	}
}

// TestFailedJobReportsError: a job naming a nonexistent dataset fails
// with the resolution error in its status.
func TestFailedJobReportsError(t *testing.T) {
	_, base, _, _ := newTestService(t)
	code, body := do(t, http.MethodPost, base+"/v1/jobs", jobSpec(t, "ghost", "feedfacefeedface", 1, 1))
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d body %s", code, body)
	}
	var js JobStatus
	if err := json.Unmarshal([]byte(body), &js); err != nil {
		t.Fatal(err)
	}
	final := awaitJob(t, base, js.ID)
	if final.State != StateFailed || final.Error == "" {
		t.Fatalf("job over a missing dataset ended %+v, want failed with error", final)
	}
	if !strings.Contains(final.Error, "feedfacefeedface") {
		t.Fatalf("failure message %q does not name the dataset", final.Error)
	}
}

// TestSubmitRejectsDropoutOne: a model config with DropoutP 1, whose
// dropout keep factor 1/(1-P) is infinite, is refused before training
// starts, as 400 invalid_config.
func TestSubmitRejectsDropoutOne(t *testing.T) {
	_, base, _, digest := newTestService(t)
	var req JobRequest
	if err := json.Unmarshal([]byte(jobSpec(t, "drop1", digest, 1, 1)), &req); err != nil {
		t.Fatal(err)
	}
	req.Model.DropoutP = 1
	spec, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(spec), `"DropoutP":1,`) {
		t.Fatalf("request %s does not post DropoutP 1", spec)
	}
	code, body := do(t, http.MethodPost, base+"/v1/jobs", string(spec))
	var er errorResponse
	if err := json.Unmarshal([]byte(body), &er); err != nil {
		t.Fatalf("body %q: %v", body, err)
	}
	if code != http.StatusBadRequest || er.Error.Code != CodeInvalidConfig || !strings.Contains(er.Error.Message, "dropout") {
		t.Fatalf("DropoutP 1: status %d body %s, want 400 %s naming dropout", code, body, CodeInvalidConfig)
	}
}

// TestMetricsExposition: the service exposes its Prometheus families.
func TestMetricsExposition(t *testing.T) {
	_, base, _, digest := newTestService(t)
	code, body := do(t, http.MethodPost, base+"/v1/jobs", jobSpec(t, "m", digest, 1, 1))
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d body %s", code, body)
	}
	var js JobStatus
	if err := json.Unmarshal([]byte(body), &js); err != nil {
		t.Fatal(err)
	}
	awaitJob(t, base, js.ID)
	code, body = do(t, http.MethodGet, base+"/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	for _, want := range []string{
		`cbx_traind_jobs_total{state="succeeded"} 1`,
		"cbx_traind_epochs_total 1",
		"cbx_traind_requests_total",
		"cbx_traind_training 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestDatasetResolvesByName covers the name fallback of the shared
// dataset-resolution path: a job may reference the dataset by the
// -name it was built under, not only by manifest digest prefix.
func TestDatasetResolvesByName(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	digest := buildTestDataset(t, st)

	src, man, err := openDatasetIn(st, "traind-test")
	if err != nil {
		t.Fatal(err)
	}
	if man.Name != "traind-test" {
		t.Fatalf("name resolved to manifest %q, want %q (built as %s)", man.Name, "traind-test", digest)
	}
	if src.Len() == 0 {
		t.Fatal("name-resolved dataset has no samples")
	}
	if _, _, err := openDatasetIn(st, "no-such-dataset"); err == nil {
		t.Fatal("unknown dataset name resolved")
	}
}
