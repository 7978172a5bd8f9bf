// Package repro reproduces "DNS Privacy with Speed? Evaluating DNS over
// QUIC and its Impact on Web Performance" (Kosek, Schumann, Marx, Doan,
// Bajpai — ACM IMC 2022) as a self-contained Go system.
//
// The repository implements, from scratch and on a deterministic
// virtual-time simulator, everything the study depends on: a QUIC v1-
// shaped transport with session resumption, address-validation tokens,
// 0-RTT and the traffic-amplification limit; a TLS 1.3-shaped handshake
// engine with a real HKDF-SHA256 key schedule and AES-GCM records, over
// hash-based key-exchange and signature stand-ins with X25519/Ed25519
// wire sizes; simplified TCP; minimal HTTP/2 and
// HTTP/3; the six DNS transports (DoUDP, DoTCP, DoT, DoH, DoQ, DoH3); a
// population of simulated public resolvers matching the paper's
// deployment mix, each answering from a TTL-aware shared cache; the
// local DNS proxy (with an optional client-side stub cache) and
// page-load engine of the web methodology; the ZMap-style discovery
// scan; and the measurement campaigns themselves — including Zipf
// many-user cache workloads aggregated by fixed-memory streaming
// sketches.
//
// # Sharded execution
//
// Every measurement campaign runs on the internal/campaign engine: the
// campaign is split into shards (by vantage and resolver block, or by
// scan target block), each shard instantiates its partition of the
// testbed inside a private sim.World whose seed derives from the
// campaign seed and the shard index, and shards execute on a worker
// pool of OS threads sized by GOMAXPROCS. Results merge in shard order,
// and shard plans never depend on the worker count, so for a fixed seed
// every campaign — and every experiment report — is byte-identical at
// parallelism 1 and parallelism N. Parallelism is purely a wall-time
// knob (cmd/experiments -parallel N, Config.Parallelism).
//
// Every table and figure of the paper's evaluation is regenerated by an
// experiment in internal/experiments (driven by cmd/experiments; the
// repository benchmark in bench/ times them). See DESIGN.md for the
// system inventory and EXPERIMENTS.md for paper-versus-measured results.
package repro
