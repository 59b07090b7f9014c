package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// specJSON pins every workload size and fixed offered rate, and records
// which workloads report each metric and the spread measured when the
// bounds in BENCHMARK.json were set. The benchmark reads its sizes from
// here, so the file and the runs cannot disagree.
//
//go:embed spec.json
var specJSON []byte

// spec is the part of spec.json the benchmark runs on; the rest of the
// file is documentation.
type spec struct {
	DefaultSeed int64       `json:"default_seed"`
	SetupProbes int         `json:"setup_probes"`
	Locate      locateSpec  `json:"locate"`
	Serve       clusterSpec `json:"serve"`
	Churn       clusterSpec `json:"churn"`
}

type locateSpec struct {
	// Traces walks give the error metrics; the timed phases cycle through
	// the first CycleTraces of them, so the harness's inputs stay small
	// beside the program's heap and the collector runs at its usual pace.
	Traces      int         `json:"traces"`
	CycleTraces int         `json:"cycle_traces"`
	Beacons     []beaconPos `json:"beacons"`
	LegsM       [2]float64  `json:"legs_m"`
	// CheckTraces is how many traces a setup probe locates in its own
	// process to confirm the errors repeat across processes.
	CheckTraces int `json:"check_traces"`
	// ClosedOpsS and OpenRate are as in clusterSpec, for all callers
	// together.
	ClosedOpsS float64 `json:"closed_loop_ops_s"`
	OpenRate   float64 `json:"open_rate_per_s"`
}

type beaconPos struct {
	Name string  `json:"name"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
}

// clusterSpec sizes the serve and churn workloads: a router over Nodes
// loopback servers, each with its own engine and a fleet of Shards.
type clusterSpec struct {
	Nodes  int `json:"nodes"`
	Shards int `json:"shards_per_node"`
	// Durable selects a shared durable.FileStore in buffered mode (no
	// fsync per save: a shared disk's fsync latency would otherwise drown
	// every code change) instead of a MemStore.
	Durable bool `json:"durable"`
	// IdleMaxAgeS is the fleet's eviction horizon in observation seconds.
	IdleMaxAgeS float64 `json:"idle_max_age_s"`
	// BeaconsPerGateway beacons are pushed in pairs, two per push.
	BeaconsPerGateway int `json:"beacons_per_gateway"`
	// PushObs observations per beacon per push, at RateHz.
	PushObs int     `json:"push_obs"`
	RateHz  float64 `json:"rate_hz"`
	// GapS is how far one gateway's observation clock advances per push
	// (churn); zero means each pair's stream simply continues (serve).
	GapS float64 `json:"gap_s"`
	// WarmupPushes per pair run before timing starts.
	WarmupPushes int `json:"warmup_pushes"`
	// ErrPushes slices of each of the first ErrBeacons beacons' streams
	// are replayed for the error metrics (serve replays every beacon).
	ErrPushes  int `json:"err_pushes"`
	ErrBeacons int `json:"err_beacons"`
	// ClosedOpsS is the closed-loop throughput measured when OpenRate was
	// set; the untraced run reserves its per-op records from it.
	ClosedOpsS float64 `json:"closed_loop_ops_s"`
	// OpenRate is the open-loop phase's fixed total offered rate in
	// pushes per second, about half of ClosedOpsS.
	OpenRate float64 `json:"open_rate_per_s"`
}

func loadSpec() (*spec, error) {
	var s spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	return &s, nil
}
