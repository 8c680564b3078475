// Package baseline implements the comparison algorithms the paper measures
// against: FloodMax-style explicit leader election, representative of the
// Omega(m)-message class of general-graph algorithms ([24]'s lower bound
// regime), against which Theorem 13's sublinear bound is contrasted on
// well-connected graphs.
//
// FloodMax respects the anonymous port-numbered model of internal/sim:
// candidate identities are random protocol-level ids drawn from [1, n^4]
// that travel in message payloads, never sender indices read off the wire
// (Envelope.From stays -1 unless sim.Config.DebugFrom is set, and the
// regression tests here pin that toggling the debug flag cannot change a
// run). The package exposes two entry points: the historical FloodMax
// convenience wrapper, and the generalized Run that takes the full run
// option set (engine.Options: faults, budgets, observers); internal/algo
// runs the same Instance as a first-class backend.
package baseline
