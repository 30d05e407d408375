// Package experiment is the catalogue of the evaluation: the one
// definition of each experiment's grid, arms and mounts, as a function
// from an Env to typed result tables. cmd/mifbench prints the tables and
// records them in BENCH.json, the root BenchmarkExperiment times the same
// functions, and Shapes judges the recorded tables against the paper.
package experiment

import (
	"redbud/internal/pfs"
	"redbud/internal/telemetry"
)

// Env is what a run is given: the workload scale factor and the
// session's telemetry, attached to every mount the experiment builds
// (both may be nil).
type Env struct {
	Scale   float64
	Metrics *telemetry.Registry
	Trace   *telemetry.Tracer
}

func (e Env) mount(cfg pfs.Config) pfs.Config {
	cfg.Metrics, cfg.Trace = e.Metrics, e.Trace
	return cfg
}

func (e Env) scaled(n int64) int64 { return int64(float64(n) * e.Scale) }

// Experiment is one catalogue entry. Tables declares the result tables
// without rows — IDs, titles, columns, notes — so the catalogue can be
// checked against a snapshot without running anything; run fills the rows.
type Experiment struct {
	// Name is the mifbench argument and the BENCH.json record name.
	Name    string
	Summary string
	Tables  []Table
	run     func(env Env, t []Table) error
}

// All lists the experiments in the order `mifbench all` runs them.
var All = []Experiment{fig6a, fig6b, fig7, table1, fig8, fig9, fig10, ablation, defragExp, cacheExp, failoverExp, crashSweep}

// Run executes the experiment and returns its tables. A cell that is not
// finite (every derived column divides) is an error naming
// table/row/column, so it surfaces here and not when the snapshot is
// marshalled after the last experiment.
func (e Experiment) Run(env Env) ([]Table, error) {
	tables := append([]Table(nil), e.Tables...)
	if err := e.run(env, tables); err != nil {
		return nil, err
	}
	for _, t := range tables {
		if err := t.Check(); err != nil {
			return nil, err
		}
	}
	return tables, nil
}

// Fig6FS builds the micro-benchmark mount: 5 data disks, as in the paper
// ("we configured all data to be striped on five disks").
func Fig6FS(policy pfs.PolicyKind) pfs.Config {
	cfg := pfs.MiF(5).WithPolicy(policy)
	cfg.ReservationWindow = 2048
	return cfg
}

// Fig7FS builds the macro-benchmark mount: 8 data disks ("all data are
// striped in eight disks").
func Fig7FS(policy pfs.PolicyKind) pfs.Config {
	cfg := pfs.MiF(8).WithPolicy(policy)
	cfg.ReservationWindow = 2048
	return cfg
}
