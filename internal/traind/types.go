// Package traind is cbx-traind's engine: a data-parallel CB-GAN
// training service built on the redesigned versioned training API
// (core.TrainConfig). It is the training-side twin of internal/serve:
//
//   - a job control plane — POST /v1/jobs submits a training job
//     (model config + TrainConfig), GET /v1/jobs/{id} reports progress,
//     DELETE /v1/jobs/{id} cancels via the config's context hook;
//   - one job trains at a time (training saturates the machine; a
//     second submission gets HTTP 409 with code "busy");
//   - datasets stream out of the content-addressed artifact store
//     (internal/stream manifests), so the service never materialises a
//     dataset in memory;
//   - checkpoints land in the service work directory under the job's
//     model name, and Checkpoint.Resume is opportunistic, so a crashed
//     or restarted job resumes from its last epoch by resubmitting;
//   - finished models are published into the same store under kind
//     "model", where a store-backed cbx-serve registry hot-loads them
//     on its next reload — train-to-serve with no file copying.
//
// Errors use the same versioned envelope as internal/serve:
// {"error":{"code":"...","message":"..."}} with stable machine-readable
// codes. Everything is Go standard library only.
package traind

import (
	"cachebox/internal/core"
)

// Job lifecycle states. A job is created "pending", moves to "running"
// when the trainer picks it up (immediately — there is no queue), and
// ends in exactly one of the three terminal states.
const (
	StatePending   = "pending"
	StateRunning   = "running"
	StateSucceeded = "succeeded"
	StateFailed    = "failed"
	StateCanceled  = "canceled"
)

// terminal reports whether a job state is final.
func terminal(state string) bool {
	return state == StateSucceeded || state == StateFailed || state == StateCanceled
}

// JobRequest is the POST /v1/jobs body: everything a training run
// needs, self-contained.
type JobRequest struct {
	// Name is the model name the finished model is published under;
	// a store-backed cbx-serve registry serves it by this name.
	Name string `json:"name"`
	// Model is the CB-GAN architecture to train. Nil means
	// core.DefaultConfig() (the paper-shaped model).
	Model *core.Config `json:"model,omitempty"`
	// Train is the versioned training recipe. Its dataset section must
	// be kind "stream"; when its store path is empty the service's own
	// store is used. Checkpoint paths are resolved inside the service
	// work directory.
	Train core.TrainConfig `json:"train"`
}

// JobStatus is the wire form of a job (POST /v1/jobs, GET /v1/jobs,
// GET /v1/jobs/{id}). It deliberately carries no wall-clock fields:
// every field is a deterministic function of the job's inputs and
// progress, which keeps the API contract golden-testable.
type JobStatus struct {
	ID    string `json:"id"`
	Name  string `json:"name"`
	State string `json:"state"`
	// Epochs is the configured run length; EpochsDone counts completed
	// epochs (including epochs restored from a resumed checkpoint).
	Epochs     int `json:"epochs"`
	EpochsDone int `json:"epochs_done"`
	// Shards echoes the job's data-parallel shard count (1 = serial).
	Shards int `json:"shards"`
	// DLoss/GAdv/GL1 are the latest completed epoch's mean losses.
	DLoss float64 `json:"d_loss,omitempty"`
	GAdv  float64 `json:"g_adv,omitempty"`
	GL1   float64 `json:"g_l1,omitempty"`
	// Error carries the failure message of a failed job.
	Error string `json:"error,omitempty"`
	// ModelDigest/ModelSHA256 identify the published store entry of a
	// succeeded job (the digest cbx-serve's store registry loads).
	ModelDigest string `json:"model_digest,omitempty"`
	ModelSHA256 string `json:"model_sha256,omitempty"`
}

// Stable machine-readable error codes of the traind v1 error envelope.
// Codes are part of the API contract (see the golden tests in
// contract_test.go): clients branch on the code, the message is for
// humans and may change.
const (
	CodeBadRequest    = "bad_request"    // malformed JSON or body
	CodeInvalidConfig = "invalid_config" // well-formed but unusable job spec
	CodeBusy          = "busy"           // a job is already training (one at a time)
	CodeNotFound      = "not_found"      // unknown job id
	CodeJobDone       = "job_done"       // cancel requested on a finished job
)

// ErrorBody is the detail object of the v1 error envelope, identical
// in shape to internal/serve's.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorResponse is the JSON body of every non-2xx API response.
type errorResponse struct {
	Error ErrorBody `json:"error"`
}

// healthResponse is the GET /healthz body. Training reports whether a
// job is mid-run so a deploy orchestrator can wait for idle.
type healthResponse struct {
	Status   string `json:"status"`
	Training bool   `json:"training"`
	Jobs     int    `json:"jobs"`
}
