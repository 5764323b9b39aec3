// Command cbx-traind runs the CacheBox training service: an HTTP
// control plane that trains CB-GAN models from streamed store datasets
// — one job at a time, deterministically data-parallel — and publishes
// finished models into the same content-addressed store, where a
// store-backed cbx-serve registry hot-loads them on reload.
//
// Serve (store required; checkpoints land in <store>/traind):
//
//	cbx-traind -store artifacts/store -addr :8090
//
// Submit a job from a spec file, poll it to completion, and exit with
// its outcome (the CI e2e driver):
//
//	cbx-traind -submit job.json -base http://127.0.0.1:8090
//
// Endpoints: POST /v1/jobs, GET /v1/jobs, GET /v1/jobs/{id},
// DELETE /v1/jobs/{id}, GET /healthz, GET /metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cachebox/internal/httpx"
	"cachebox/internal/store"
	"cachebox/internal/traind"
)

func main() {
	ctx, _ := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run serves until ctx ends (or drives one job with -submit) and
// returns the exit code: 0 ok, 1 a failure, 2 a usage error.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cbx-traind", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8090", "listen address")
	storeDir := fs.String("store", "", "artifact store directory (datasets in, trained models out)")
	workDir := fs.String("workdir", "", "checkpoint directory (default <store>/traind)")
	submit := fs.String("submit", "", "run as a client: submit this job spec file, poll to completion, exit")
	base := fs.String("base", "http://127.0.0.1:8090", "server base URL for -submit")
	wait := fs.Duration("wait", 10*time.Minute, "job-completion budget for -submit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	logger := log.New(stderr, "cbx-traind: ", log.LstdFlags|log.Lmsgprefix)

	if *submit != "" {
		if err := runSubmit(log.New(stdout, "", 0), *base, *submit, *wait); err != nil {
			logger.Print("submit: ", err)
			return 1
		}
		return 0
	}
	if *storeDir == "" {
		logger.Print("need -store <dir> (or -submit <job.json>)")
		return 2
	}
	st, err := store.Open(*storeDir)
	if err != nil {
		logger.Print(err)
		return 1
	}
	s, err := traind.New(traind.Config{Store: st, WorkDir: *workDir, Log: stderr})
	if err != nil {
		logger.Print(err)
		return 1
	}
	// The listener stops first, then Close cancels the active job and
	// waits for its checkpoint to settle so a restart can resume it.
	err = httpx.Run(ctx, httpx.Service{
		Name: "cbx-traind", Addr: *addr, Handler: s,
		Detail: "store " + *storeDir,
		Drain:  s.Close, DrainTimeout: 30 * time.Second, Log: logger,
	})
	if err != nil {
		logger.Print(err)
		return 1
	}
	return 0
}

// runSubmit drives one job end to end over the API: submit the spec,
// poll its status until a terminal state, and report the outcome.
func runSubmit(out *log.Logger, base, specPath string, budget time.Duration) error {
	spec, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	if err := waitHealthy(base, 10*time.Second); err != nil {
		return err
	}
	st, err := job(http.MethodPost, base+"/v1/jobs", spec, http.StatusAccepted)
	if err != nil {
		return err
	}
	out.Printf("job %s (%s) accepted: %d epochs, %d shard(s)\n", st.ID, st.Name, st.Epochs, st.Shards)

	deadline := time.Now().Add(budget)
	lastDone := -1
	for {
		if st, err = job(http.MethodGet, base+"/v1/jobs/"+st.ID, nil, http.StatusOK); err != nil {
			return err
		}
		if st.EpochsDone != lastDone {
			lastDone = st.EpochsDone
			out.Printf("job %s: %s %d/%d epochs (D=%.4f Gadv=%.4f L1=%.4f)\n",
				st.ID, st.State, st.EpochsDone, st.Epochs, st.DLoss, st.GAdv, st.GL1)
		}
		switch st.State {
		case traind.StateSucceeded:
			out.Printf("job %s succeeded: model %s published as store entry %s\n", st.ID, st.Name, st.ModelDigest)
			return nil
		case traind.StateFailed:
			return fmt.Errorf("job %s failed: %s", st.ID, st.Error)
		case traind.StateCanceled:
			return fmt.Errorf("job %s was canceled", st.ID)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s still %s after %v", st.ID, st.State, budget)
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// job sends one jobs-API request that must answer with status want and
// decodes the job status it returns.
func job(method, url string, body []byte, want int) (traind.JobStatus, error) {
	var st traind.JobStatus
	code, data, err := fetch(method, url, body)
	if err == nil && code != want {
		err = fmt.Errorf("%s %s: status %d: %s", method, url, code, data)
	}
	if err == nil {
		if err = json.Unmarshal(data, &st); err != nil {
			err = fmt.Errorf("decode job status: %w", err)
		}
	}
	return st, err
}

// waitHealthy polls /healthz until the server answers, so the client
// can start before the server finishes booting.
func waitHealthy(base string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		code, _, err := fetch(http.MethodGet, base+"/healthz", nil)
		if err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("server never became healthy: %w", err)
			}
			return fmt.Errorf("server never became healthy: /healthz status %d", code)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// fetch issues one HTTP request and returns status + body.
func fetch(method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, rerr := io.ReadAll(resp.Body)
	if err := errors.Join(rerr, resp.Body.Close()); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}
