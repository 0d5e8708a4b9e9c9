# Offline verification pipeline — everything CI runs, runnable locally: each
# CI step is one target here. All dependencies are vendored (see vendor/), so
# --offline always works. SMOKE=1 (e.g. `make bench-chaos SMOKE=1`) runs a
# bench's reduced CI profile with the same gates and artifacts
# (bench-failover has one size).

CARGO ?= cargo
OFFLINE ?= --offline

.PHONY: verify build test doc clippy loc one-core bench-failover bench-attribution figures determinism rebaseline bench-backplane bench-chaos bench-telemetry bench-doctor perf-smoke perf-row

verify: build test doc clippy one-core

build:
	$(CARGO) build $(OFFLINE) --release

test:
	$(CARGO) test $(OFFLINE) -q

doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc $(OFFLINE) --no-deps

clippy:
	$(CARGO) clippy $(OFFLINE) --all-targets -- -D warnings

# The design-quality metric: non-test Rust lines per crate (every line
# before a file's top-level `#[cfg(test)]`), then the protocol core and its
# two drivers on their own.
LOC = awk 'FNR == 1 { t = 0 } /^\#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { print n + 0 }'
loc:
	@for c in crates/*; do \
		printf '%-8s %6d\n' $$(basename $$c) $$(find $$c/src -name '*.rs' | xargs $(LOC)); \
	done
	@printf '%-8s %6d  (proto.rs + endpoint.rs + backplane/wire.rs)\n' protocol \
		$$($(LOC) crates/core/src/proto.rs crates/core/src/endpoint.rs crates/core/src/backplane/wire.rs)

# The protocol exists once, in crates/core/src/proto.rs. The two drivers may
# hold a ProtoCore, never its parts: naming one of the state-machine types
# in a driver is how the protocol got written out twice. The same goes for
# watching it: sources are registered and monitors built in timeline.rs only.
# In the same spirit `unsafe` has one address in crates/core: the hand-declared
# socket calls of backplane/sys.rs, behind safe functions over slices. The word
# anywhere else under crates/core/src fails the target, comments included. The
# bytes a frame is made of get the same rule: under crates/frame the word may
# appear in src/fcs.rs only (the one feature-detected dispatch into the
# hardware CRC), and under vendor/bytes nowhere. The simulator's is its
# engine's: under crates/netsim/src the word may appear in engine.rs only
# (closures stored in place in cache-line slots, and the prefetch of the
# next one). A frame's fate has one
# oracle too: netsim::faults::FaultStream, used by netsim's channels and the
# chaos interposer alike; a Gilbert–Elliott transition probability named in
# any other crates/*/src file is a second fault decision being written. And
# an event has one vocabulary, me_trace::Event, kept by the tracer and the
# flight recorder alike; a FlightCode or FlightEvent is a second one.
# The fabric has one delivery path: a remote channel end is a second one (the
# brackets keep this file out of a grep for the deleted names). And the
# protocol has one observability call, Observers::emit: proto.rs names no
# span key, leg or recorder and calls no plane directly — the tracer, the
# span recorder and the flight recorder each fold the events it emits. A
# payload made from application memory is built in memory.rs only, cut from
# the page table copy-on-write: read_bytes or BytesMut in the core or a
# driver is an op's private copy of bytes its pages already hold.
ONE_CORE_PARTS = SeqTracker|OpOrdering|TxRing|GapRing|RttEstimator|NackRanges|from_wire|TimelineBuilder|HealthMonitor::
one-core:
	@if grep -nE '$(ONE_CORE_PARTS)' crates/core/src/endpoint.rs crates/core/src/backplane/wire.rs; then \
		echo 'one-core: a driver names a protocol part (see above); it belongs in proto.rs'; exit 1; \
	fi
	@if grep -rnw unsafe crates/core/src --exclude=sys.rs; then \
		echo 'one-core: unsafe outside crates/core/src/backplane/sys.rs (see above); it belongs there'; exit 1; \
	fi
	@if grep -rnw unsafe crates/frame vendor/bytes --exclude=fcs.rs; then \
		echo 'one-core: unsafe under crates/frame outside src/fcs.rs, or under vendor/bytes (see above)'; exit 1; \
	fi
	@if grep -rnw unsafe crates/netsim/src --exclude=engine.rs; then \
		echo 'one-core: unsafe under crates/netsim/src outside engine.rs (see above); it belongs there'; exit 1; \
	fi
	@if grep -rnE 'p_good_to_bad|p_bad_to_good' crates/*/src | grep -v '^crates/netsim/src/faults.rs:'; then \
		echo 'one-core: a fault decision outside crates/netsim/src/faults.rs (see above); FaultStream is the one oracle'; exit 1; \
	fi
	@if grep -rnE 'FlightCode|FlightEvent' crates tests examples; then \
		echo 'one-core: a second event vocabulary (see above); the flight recorder keeps me_trace::Event'; exit 1; \
	fi
	@if grep -rnE 'Shard[P]lan|Boundary[T]x|Remote[D]est|add_remote[_]|set_boundary[_]tx' crates tests examples; then \
		echo 'one-core: a second delivery path in the fabric (see above); channel_transmit ends at a switch or a NIC'; exit 1; \
	fi
	@if grep -nE 'Span[R]ecorder|Span[K]ey|Le[g]::|obs\.(span[s]|trace[r]|fligh[t])\.' crates/core/src/proto.rs; then \
		echo 'one-core: proto.rs reaches past Observers::emit (see above); emit the event and let each plane fold it'; exit 1; \
	fi
	@if grep -nE 'read_bytes|BytesMut' crates/core/src/proto.rs crates/core/src/endpoint.rs crates/core/src/backplane/wire.rs; then \
		echo 'one-core: a payload buffer built outside memory.rs (see above); cut it from the page table with AppMemory::fragments'; exit 1; \
	fi

# Failover ablation: writes results/BENCH_failover.json (goodput
# before/during/after a scripted rail outage, detection and re-admission
# latency p50/p99) and asserts convergence to the surviving rail.
bench-failover:
	$(CARGO) bench $(OFFLINE) -p multiedge-bench --bench ablation_failover

# Critical-path latency attribution: writes results/BENCH_attribution.json
# (per-connection / per-rail exclusive phase breakdowns of op latency) and
# asserts every cell reconciles against the tracer and ProtoStats
# (docs/OBSERVABILITY.md).
bench-attribution:
	$(CARGO) bench $(OFFLINE) -p multiedge-bench --bench attribution

# The paper's figures, tables and ablations: run the eleven harnesses and
# write each one's stdout to results/<name>.txt (the files EXPERIMENTS.md
# quotes), then print the total wall time — the third end-to-end number of
# ROADMAP's north star. Deterministic: same tree, same files.
FIGURES = fig2_micro fig3_apps_1l1g fig4_apps_1l10g fig5_apps_2l1g fig6_apps_2lu1g table1_apps \
	ablation_ack ablation_loss ablation_sched ablation_striping ablation_window
figures:
	@$(CARGO) bench $(OFFLINE) -q -p multiedge-bench --no-run $(FIGURES:%=--bench %)
	@t0=$$(date +%s); for b in $(FIGURES); do \
		$(CARGO) bench $(OFFLINE) -q -p multiedge-bench --bench $$b > results/$$b.txt || exit 1; \
	done; echo "figures: $(words $(FIGURES)) files under results/ in $$(( $$(date +%s) - t0 )) s"

# Seed => bit-identical across processes: run one micro figure and one DSM
# app figure twice, each run its own process (so a randomly seeded hasher
# would differ between them), and cmp the outputs, kept under
# target/determinism/. Same tree, so any difference is nondeterminism.
DETERMINISM = fig2_micro fig3_apps_1l1g
determinism:
	@$(CARGO) bench $(OFFLINE) -q -p multiedge-bench --no-run $(DETERMINISM:%=--bench %)
	@d=target/determinism; mkdir -p $$d; for b in $(DETERMINISM); do \
		for i in 1 2; do \
			$(CARGO) bench $(OFFLINE) -q -p multiedge-bench --bench $$b > $$d/$$b.$$i || exit 1; \
		done; \
		cmp $$d/$$b.1 $$d/$$b.2 || { echo "determinism: $$b differs between two processes"; exit 1; }; \
	done; echo "determinism: $(DETERMINISM) byte-identical across two processes each"

# Everything that is pinned to the simulated fabric's exact behaviour, each
# regenerated by its own path, after an intentional change to that
# behaviour: the stats_equivalence golden, the figures, and the four
# committed BENCH_* reports at full profile (with the telemetry dumps).
# Commit what it rewrites with the change that moved the numbers.
rebaseline: figures
	GOLDEN_REGEN=1 $(CARGO) test $(OFFLINE) -q -p multiedge-bench --test stats_equivalence
	$(MAKE) bench-telemetry bench-doctor bench-chaos bench-backplane

# Sim-vs-real transport cross-validation: the identical protocol driver
# over the netsim backplane and over real UDP sockets on loopback, span
# attributions diffed per phase (docs/BACKPLANE.md). Writes
# results/backplane/{sim,udp}.json and results/BENCH_backplane.json.
# Divergence is the measurement, not a failure; the run fails only if a
# workload cannot complete on a backend. Bounded by `timeout` so a wedged
# wall-clock poll loop cannot hang the pipeline.
bench-backplane:
	timeout 600 $(CARGO) bench $(OFFLINE) -p multiedge-bench --bench backplane

# Chaos soak harness: per-schedule chaos/recovery counters on both
# backends, fingerprints asserted equal, flight dumps written under
# results/chaos_dumps/, report to results/BENCH_chaos.json. Bounded by
# `timeout` so a wedged wall-clock loop cannot hang the pipeline.
bench-chaos:
	timeout 300 $(CARGO) bench $(OFFLINE) -p multiedge-bench --bench chaos

# Datapath and telemetry bench: the clean datapath allocates nothing per
# frame (2x2 double difference), the flight recorder and the sampler are
# purely observational (zero allocations per frame, identical stats
# fingerprint), delta reconciliation against end-of-run
# ProtoStats, a rail-outage cell whose timeline localises the outage, a
# chaos wire cell, and an 8-node incast (members = nodes) whose imbalance
# diagnosis names the receiver node hot. Writes results/BENCH_telemetry.json
# plus timeline JSONL dumps (one per incast node) for `me-inspect timeline`
# and `me-inspect doctor`. Bounded by `timeout`
# so a wedged drive loop cannot hang the pipeline.
bench-telemetry:
	timeout 600 $(CARGO) bench $(OFFLINE) -p multiedge-bench --bench telemetry

# Doctor bench: detector gate (zero allocations per sample, bit-identical
# protocol stats), rail-outage
# detection within 3 sample intervals, zero false alarms across 8 clean
# seeds, a chaos burst diagnosed as retransmit_storm, a NIC stall diagnosed
# as congestion_backlog (a short one as nothing), and the 8-node
# incast/balanced pair (members = nodes); each cause is the first incident
# of the cell that gates it. Every cell replays its JSONL
# offline and demands a byte-identical report. Writes results/BENCH_doctor.json and
# results/doctor_incidents.json. Bounded by `timeout` so a wedged drive
# loop cannot hang the pipeline.
bench-doctor:
	timeout 600 $(CARGO) bench $(OFFLINE) -p multiedge-bench --bench doctor

# The perf/ benchmark's own checks (BENCHMARK.json): every workload at 2 %
# of its ops — memory contents, op counts, quiescence, frame accounting —
# with no timing reported or judged. Keeps the benchmark building and
# passing against the crates; the timed modes are run by hand
# (perf/README.md), never in CI.
perf-smoke:
	bash perf/run.sh --smoke

# The perf ledger (ROADMAP item 4): run every workload of BENCHMARK.json once
# at full size and append one {"commit","host","workload","metrics"} line per
# workload to results/perf_history.jsonl, the metrics being those of the
# run's result line as printed. Single runs, about two minutes on a quiet
# host: they date a number and show a trend; a claim still needs the
# interleaved pairs of perf/NOISE.md. Run by hand, never in CI. To record a
# tree other than this one, run this Makefile in it and name the row:
#   make -C <checkout> -f $(CURDIR)/Makefile perf-row COMMIT=<hash> PERF_HISTORY=$(CURDIR)/results/perf_history.jsonl
COMMIT ?= $(shell git describe --always --dirty)
PERF_HISTORY ?= results/perf_history.jsonl
perf-row:
	@host="$$(nproc) x $$(sed -n 's/^model name[^:]*: //p' /proc/cpuinfo | head -n 1), $$(uname -sr)"; \
	for w in $$(awk -F'"' '/"name":/ { n = $$4 } /"why":/ { print n }' BENCHMARK.json); do \
		line=$$(bash perf/run.sh --workload $$w | tail -n 1); \
		case "$$line" in '{"correct":true,'*) ;; *) echo "perf-row: $$w failed: $$line"; exit 1;; esac; \
		printf '{"commit":"%s","host":"%s","workload":"%s","metrics":%s\n' \
			"$(COMMIT)" "$$host" $$w "$${line#*\"metrics\":}" | tee -a $(PERF_HISTORY); \
	done
