// Package serve is the simulation-as-a-service layer: a long-running
// HTTP/JSON daemon (cmd/scenariod) that accepts scenario submissions
// from many clients and serves everything out of one warm
// scenario.Store. Each request calls the store on its own goroutine;
// the store coalesces duplicate in-flight work across clients, lets a
// warmup family's members share one warm checkpoint, and runs every
// simulation under a runner.Gate — a fixed number of slots with a
// bounded wait queue, whose refusal is answered 503 — so a sweep
// submitted by a fleet of clients costs one warmup, one simulation per
// distinct point, and cache reads for everyone else. A stored result
// takes no slot and is answered however busy the slots are.
//
// The wire protocol does not ship programs or device closures. A
// request names a workload *generator* and its configuration
// (WorkloadSpec); the server regenerates the workload, which is
// deterministic in its config, so the server-side scenario digests —
// and therefore the returned results — are bit-identical to what the
// client would have computed locally. The differential suite pins
// that: a figure sweep routed through a loopback daemon renders
// byte-identical artifacts to local -no-cache execution.
package serve

import (
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/staticmodel"
	"repro/internal/workload"
)

// DefaultMaxCycles bounds a run when the request leaves MaxCycles
// zero. It is the bound the experiments harness uses for every figure
// simulation, so daemon-served runs and locally-swept runs digest
// identically.
const DefaultMaxCycles = experiments.MaxCycles

// WorkloadSpec is the wire form of a workload: a generator kind plus
// its configuration, as listed by the workload.Spec registry.
type WorkloadSpec = workload.Spec

// RunRequest submits one simulator run: a core configuration, a
// workload, and which of its matched pair of programs to execute.
type RunRequest struct {
	Config   sim.Config   `json:"config"`
	Workload WorkloadSpec `json:"workload"`
	// Program selects "baseline" or "accelerated" (the default). The
	// accelerated program runs with the workload's device; the baseline
	// runs deviceless.
	Program string `json:"program,omitempty"`
	// MaxCycles bounds the run; zero selects DefaultMaxCycles.
	MaxCycles int64 `json:"max_cycles,omitempty"`
}

// RunResponse carries the run's Stats. Digest is the scenario content
// address the result is cached under, set on every response.
type RunResponse struct {
	Stats  sim.Stats `json:"stats"`
	Digest string    `json:"digest,omitempty"`
}

// MeasureRequest submits one full measure-workload evaluation —
// baseline plus all four accelerated modes, reduced to a
// MeasureRecord, exactly the record the figure sweeps cache. The run
// bound is the harness's own (DefaultMaxCycles); it is part of the
// measure methodology, not a per-request knob.
type MeasureRequest struct {
	Config   sim.Config   `json:"config"`
	Workload WorkloadSpec `json:"workload"`
}

// MeasureResponse carries the measurement record.
type MeasureResponse struct {
	Record scenario.MeasureRecord `json:"record"`
	Digest string                 `json:"digest,omitempty"`
}

// StaticRequest asks for an analytical fast-path prediction — no cycle
// simulation, so it takes no gate slot.
type StaticRequest struct {
	Config   sim.Config   `json:"config"`
	Workload WorkloadSpec `json:"workload"`
}

// StaticResponse carries the prediction.
type StaticResponse struct {
	Prediction *staticmodel.Prediction `json:"prediction"`
	Digest     string                  `json:"digest,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}
