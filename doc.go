// Package dagger is a Go reproduction of "Dagger: Efficient and Fast RPCs
// in Cloud Microservices with Near-Memory Reconfigurable NICs" (Lazarev,
// Xiang, Adit, Zhang, Delimitrou — ASPLOS 2021).
//
// The repository contains two coupled systems:
//
//   - A functional Dagger RPC framework (internal/core over
//     internal/fabric): IDL and code generator, client pools, threaded
//     servers, completion queues, per-flow rings, connection management and
//     NIC-side load balancing, runnable in-process. The memcached and MICA
//     ports (internal/kvs) and the 8-tier Flight Registration application
//     (internal/flight) run on it.
//
//   - A calibrated discrete-event timing model (internal/sim,
//     internal/interconnect, internal/nicmodel, internal/netmodel) that
//     regenerates every table and figure of the paper's evaluation via
//     internal/experiments and cmd/daggerbench.
//
// See DESIGN.md for the system inventory and the per-experiment index, and
// EXPERIMENTS.md for paper-vs-measured results.
package dagger
