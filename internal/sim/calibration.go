package sim

import "time"

// Calibration constants for the simulated testbed. Each anchors to a
// number the paper reports; everything else (queueing, saturation knees,
// shuffle delays) emerges from the simulation.
//
//   - Direct injector→nginx requests have 1–2 ms median latency (§8.1).
//   - The cost of encryption is "slightly higher" than the cost of SGX,
//     which adds "2 to 5 ms" (§8.1.1, Fig. 6).
//   - One UA+IA instance pair sustains 250 RPS on 2-core nodes and an
//     extra pair buys another 250 RPS (§8.1.2, Fig. 8) — so the busiest
//     node's per-request CPU must sit a little under 2 cores / 250 RPS.
//   - Harness with 3 front-ends serves 250 RPS and saturates at 500;
//     each 3 more front-ends buy 250 RPS (§8.2, Fig. 9); service times
//     are below 100 ms up to 500 RPS with peaks near 300 ms at 1000 RPS.
const (
	// netHop is the one-way network latency between nodes in the
	// cluster (intra-datacenter).
	netHop = 200 * time.Microsecond

	// stubService is the nginx stub's service time (1–2 ms measured
	// directly, §8.1).
	stubService = 1500 * time.Microsecond

	// parseCost is the per-direction cost of accepting, parsing, and
	// re-emitting a request on a proxy node with no crypto (config m1).
	parseCost = 1200 * time.Microsecond

	// uaCryptoReq is the UA request-path crypto: RSA-OAEP decryption of
	// the user identifier plus deterministic pseudonymization. The
	// paper's RSA cost lives on here; the live code opens the field with
	// the much cheaper X25519 suite (ppcrypto.Open), so the simulated
	// figures keep the paper's testbed rather than this one.
	uaCryptoReq = 1600 * time.Microsecond

	// iaCryptoReq is the IA request-path crypto: RSA-OAEP decryption of
	// the temporary key (or item) plus KV bookkeeping.
	iaCryptoReq = 1200 * time.Microsecond

	// iaCryptoResp is the IA response-path crypto: de-pseudonymizing up
	// to 20 item identifiers and re-encrypting the padded list under
	// the temporary key.
	iaCryptoResp = 2200 * time.Microsecond

	// itemPseudoCost is the increment of item pseudonymization (m4
	// toggles it off; Fig. 6 shows the impact is negligible).
	itemPseudoCost = 100 * time.Microsecond

	// sgxEcall is the enclave-transition and in-enclave overhead per
	// ECALL; three ECALLs per get request make SGX add 2–5 ms of the
	// round trip (Fig. 6, m2 vs m3).
	sgxEcall = 700 * time.Microsecond

	// proxyCV is the coefficient of variation of proxy service times.
	proxyCV = 0.35

	// proxyCores matches the 2-core NUCs.
	proxyCores = 2

	// Harness model: front-end query CPU dominates (§8.2: "The
	// front-end service is the main source of load"), with an
	// Elasticsearch tier shared by every configuration and a fixed
	// model-read base latency.
	// A front-end sustains ~100 queries/s on its 2 cores, so 3 of them
	// serve 250 RPS at ~0.83 utilization and collapse at 500 — the b1
	// knee of Fig. 9. High service-time variability (complex reads
	// against a shared database, §8.2) widens the distribution as load
	// grows, producing the ~300 ms peaks at 1000 RPS.
	harnessFECost  = 20 * time.Millisecond
	harnessESCost  = 4 * time.Millisecond
	harnessESNodes = 3
	harnessBase    = 12 * time.Millisecond
	harnessCV      = 1.0

	// shuffleTimeout bounds the wait of a partially filled buffer.
	shuffleTimeout = 500 * time.Millisecond
)
