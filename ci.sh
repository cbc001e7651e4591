#!/usr/bin/env sh
# The offline CI gate, in named stages with per-stage wall-clock timing.
#
#   ./ci.sh         full gate: build, test, all-targets, e2ebench,
#                   bench-regression, wco, soak, out-of-core, metrics,
#                   protocol-fuzz, segment-fuzz, subscribe, docs, fmt,
#                   clippy
#   ./ci.sh quick   build + tests only (the tier-1 inner loop)
#
# Everything runs with no network and no registry. The bench-regression
# stage re-runs every micro-bench with the quick budgets, collects
# medians into target/bench-current.jsonl (FLOWMOTIF_BENCH_JSON), and
# fails on any >1.5x median regression against the committed
# BENCH_baseline.json (see `bench_gate --help`; re-seed intentional
# changes with its `bless` mode).
set -eu

MODE="${1:-full}"

stage() {
  _name="$1"
  shift
  echo "==> stage: ${_name}"
  _t0=$(date +%s)
  "$@"
  echo "==> stage ${_name}: ok ($(($(date +%s) - _t0))s)"
}

stage_build() {
  cargo build --release --offline
}

stage_test() {
  cargo test -q --offline --workspace
}

stage_all_targets() {
  # Benches and experiment binaries must at least compile.
  cargo build --offline --workspace --all-targets
}

stage_e2ebench() {
  # The end-to-end benchmark harness is a workspace of its own that
  # calls the library directly: an API change that breaks it must fail
  # here, not first in a benchmark run.
  cargo build --release --offline --manifest-path e2ebench/Cargo.toml
}

stage_bench_regression() {
  # Bench smoke + regression gate: every micro-bench must *run* with the
  # quick budgets (so bench bit-rot fails the gate), and the recorded
  # medians must stay within 1.5x of the committed baseline. The sweep
  # runs twice and the gate judges each bench by its fastest median
  # (best-of-N, same fold `bless` applies), so a one-off scheduler
  # hiccup in either sweep cannot fail the gate. Two benches double as
  # hard assertions: `alloc_profile` runs under a counting global
  # allocator and panics if the steady-state search performs any heap
  # allocation per match, and `skewed_scan` panics if hub splitting
  # stops making the modelled 8-worker schedule >= 2x faster than the
  # legacy block schedule.
  rm -f target/bench-current.jsonl
  FLOWMOTIF_BENCH_JSON="$PWD/target/bench-current.jsonl" \
    cargo bench --offline -p flowmotif-bench --benches -- --quick
  FLOWMOTIF_BENCH_JSON="$PWD/target/bench-current.jsonl" \
    cargo bench --offline -p flowmotif-bench --benches -- --quick
  cargo run --release --offline -p flowmotif-bench --bin bench_gate -- \
    check BENCH_baseline.json target/bench-current.jsonl
}

stage_wco() {
  # Worst-case-optimal P1 gate: `benches/wco.rs` builds a hub-skewed
  # pinwheel graph and asserts in-process that cardinality-ordered
  # extension (propose from the smallest candidate list, gallop the
  # rest) beats fixed-order extension by >= 3x wall-clock, and that
  # both orders enumerate the bit-identical structural match stream.
  # The quick sweep above already runs it; this stage re-runs it with
  # the full measurement budgets so the margin assertion judges stable
  # medians, not 10ms samples.
  cargo bench --offline -p flowmotif-bench --bench wco
}

stage_soak() {
  # Serve v2 capacity gate: `benches/soak.rs` holds 120 simultaneously
  # open connections on a worker config whose thread-per-connection
  # predecessor capped at 10, and asserts a repeated count answered by
  # the epoch-keyed result cache is >= 10x faster end-to-end than the
  # same query with the cache disabled. The quick sweep above already
  # runs it; this stage re-runs it with the full measurement budgets so
  # the margin assertions judge stable medians.
  cargo bench --offline -p flowmotif-bench --bench soak
}

stage_out_of_core() {
  # End-to-end out-of-core path on this machine: generate a synthetic
  # dataset, compile it into a packed segment (forcing a multi-run
  # external sort with a tiny sort buffer), and require the mapped
  # `--packed` search to produce byte-identical output to the search of
  # the edge list (built into an in-memory segment) for the enumeration,
  # top-k, top-1 and census pipelines — also at `--threads 2`, where
  # the `find` sample, the top-k tie order and the census rows must not
  # depend on the schedule, and the edge-list searches at `--threads 1`
  # and `3`, where the in-memory build is split across workers. The
  # edge-list parser's differential loop then runs with a larger budget
  # than the test stage gives it. The memory
  # side of the story is enforced by `benches/out_of_core.rs` in the
  # bench-regression stage above: it runs the packed search under an
  # allocator-enforced heap budget 4x smaller than the segment and
  # feeds its timings through `bench_gate` like every other bench.
  _fm="target/release/flowmotif"
  _dir="target/out_of_core_ci"
  rm -rf "${_dir}"
  mkdir -p "${_dir}"
  "${_fm}" generate --dataset bitcoin --scale 1.0 --seed 7 --out "${_dir}/edges.txt"
  "${_fm}" pack "${_dir}/edges.txt" --out "${_dir}/seg" --run-records 1024
  "${_fm}" find "${_dir}/edges.txt" --motif "M(3,3)" --delta 3600 --phi 5 >"${_dir}/find-mem.txt"
  "${_fm}" find "${_dir}/seg" --packed --motif "M(3,3)" --delta 3600 --phi 5 >"${_dir}/find-packed.txt"
  cmp "${_dir}/find-mem.txt" "${_dir}/find-packed.txt"
  "${_fm}" topk "${_dir}/edges.txt" --motif "M(3,2)" --delta 3600 --k 5 >"${_dir}/topk-mem.txt"
  "${_fm}" topk "${_dir}/seg" --packed --motif "M(3,2)" --delta 3600 --k 5 >"${_dir}/topk-packed.txt"
  cmp "${_dir}/topk-mem.txt" "${_dir}/topk-packed.txt"
  "${_fm}" find "${_dir}/edges.txt" --motif "M(3,2)" --delta 3600 --phi 5 --show 5 --threads 2 \
    >"${_dir}/find2-mem.txt"
  "${_fm}" find "${_dir}/seg" --packed --motif "M(3,2)" --delta 3600 --phi 5 --show 5 --threads 2 \
    >"${_dir}/find2-packed.txt"
  cmp "${_dir}/find2-mem.txt" "${_dir}/find2-packed.txt"
  "${_fm}" topk "${_dir}/edges.txt" --motif "M(3,2)" --delta 3600 --k 10 --threads 2 \
    >"${_dir}/topk2-mem.txt"
  "${_fm}" topk "${_dir}/seg" --packed --motif "M(3,2)" --delta 3600 --k 10 --threads 2 \
    >"${_dir}/topk2-packed.txt"
  cmp "${_dir}/topk2-mem.txt" "${_dir}/topk2-packed.txt"
  # The ranking searches run as cutoff passes under a phase-P1 pair-flow
  # floor: top-1 (flow and witness) must not depend on the backend,
  # top-k not on the thread count, and top-k at k = 1 must agree with
  # the DP's top-1 flow.
  "${_fm}" top1 "${_dir}/edges.txt" --motif "M(3,2)" --delta 3600 >"${_dir}/top1-mem.txt"
  "${_fm}" top1 "${_dir}/seg" --packed --motif "M(3,2)" --delta 3600 >"${_dir}/top1-packed.txt"
  cmp "${_dir}/top1-mem.txt" "${_dir}/top1-packed.txt"
  "${_fm}" topk "${_dir}/edges.txt" --motif "M(3,2)" --delta 3600 --k 10 --threads 1 \
    >"${_dir}/topk1-mem.txt"
  cmp "${_dir}/topk1-mem.txt" "${_dir}/topk2-mem.txt"
  # The census runs every walk shape through the same two-phase search:
  # its rows must not depend on the backend or the thread count either.
  "${_fm}" census "${_dir}/edges.txt" --edges 3 --delta 3600 --phi 5 >"${_dir}/census-mem.txt"
  "${_fm}" census "${_dir}/seg" --packed --edges 3 --delta 3600 --phi 5 \
    >"${_dir}/census-packed.txt"
  cmp "${_dir}/census-mem.txt" "${_dir}/census-packed.txt"
  "${_fm}" census "${_dir}/edges.txt" --edges 3 --delta 3600 --phi 5 --threads 2 \
    >"${_dir}/census2-mem.txt"
  cmp "${_dir}/census-mem.txt" "${_dir}/census2-mem.txt"
  _k1=$("${_fm}" topk "${_dir}/edges.txt" --motif "M(3,2)" --delta 3600 --k 1 |
    awk '$1 == "#1" { print $3 }')
  _top1=$(awk '$1 == "top-1" { print $3 }' "${_dir}/top1-mem.txt")
  if [ -z "${_k1}" ] || [ "${_k1}" != "${_top1}" ]; then
    echo "topk --k 1 flow '${_k1}' differs from top1 flow '${_top1}'"
    exit 1
  fi
  # The in-memory build splits the parse, the sort and the section
  # writes across --threads workers: no answer may depend on the count,
  # also on a copy of the edge list with CRLF line ends and comment and
  # blank lines between the records, which must answer as the original.
  awk '{ printf "%s\r\n", $0; if (NR % 7 == 0) printf "# comment %d\r\n\r\n", NR }' \
    "${_dir}/edges.txt" >"${_dir}/edges-crlf.txt"
  for _edges in edges edges-crlf; do
    for _t in 1 3; do
      "${_fm}" find "${_dir}/${_edges}.txt" --motif "M(3,2)" --delta 3600 --phi 5 --show 5 \
        --threads "${_t}" >"${_dir}/${_edges}-find-t${_t}.txt"
      "${_fm}" topk "${_dir}/${_edges}.txt" --motif "M(3,2)" --delta 3600 --k 10 \
        --threads "${_t}" >"${_dir}/${_edges}-topk-t${_t}.txt"
      "${_fm}" top1 "${_dir}/${_edges}.txt" --motif "M(3,2)" --delta 3600 \
        --threads "${_t}" >"${_dir}/${_edges}-top1-t${_t}.txt"
    done
    for _job in find topk top1; do
      cmp "${_dir}/${_edges}-${_job}-t1.txt" "${_dir}/${_edges}-${_job}-t3.txt"
      cmp "${_dir}/edges-${_job}-t1.txt" "${_dir}/${_edges}-${_job}-t1.txt"
    done
  done
  # topk/top1 on an edge list search ranking images of only the pairs
  # each cutoff pass admits. Their --json, which shows pair ids and every
  # digit of the flows, must equal the packed segment's at 1 and 2
  # threads: on the fractional flows of the graph above and on the
  # integer, heavily tied flows of a Facebook-like graph.
  "${_fm}" generate --dataset facebook --scale 2 --seed 1 --out "${_dir}/fb.txt"
  "${_fm}" pack "${_dir}/fb.txt" --out "${_dir}/fb-seg"
  for _graph in edges:seg fb:fb-seg; do
    _edges="${_graph%%:*}"
    _seg="${_graph#*:}"
    for _t in 1 2; do
      for _job in topk top1; do
        _k=""
        [ "${_job}" = topk ] && _k="--k 10"
        # shellcheck disable=SC2086 # `_k` is empty or a flag and its value
        "${_fm}" "${_job}" "${_dir}/${_edges}.txt" ${_k} --motif "M(3,2)" --delta 3600 --json \
          --threads "${_t}" >"${_dir}/rank-mem.json"
        # shellcheck disable=SC2086
        "${_fm}" "${_job}" "${_dir}/${_seg}" --packed ${_k} --motif "M(3,2)" --delta 3600 \
          --json --threads "${_t}" >"${_dir}/rank-packed.json"
        cmp "${_dir}/rank-mem.json" "${_dir}/rank-packed.json"
      done
    done
  done
  FLOWMOTIF_PARSE_FUZZ_ITERS=200000 cargo test -q --release --offline -p flowmotif-graph \
    byte_parser_agrees_with_the_text_parser
}

stage_metrics() {
  # End-to-end observability path: serve on a private port, drive a few
  # requests through the client, fetch the exposition text with the
  # `metrics` subcommand, and assert both the Prometheus framing and the
  # key per-tier series (serve counters + histogram, engine gauges,
  # process-wide stream and storage series) came back over the wire.
  _fm="target/release/flowmotif"
  _dir="target/metrics_ci"
  _port=$(( 20000 + ($$ % 20000) ))
  rm -rf "${_dir}"
  mkdir -p "${_dir}"
  "${_fm}" serve --port "${_port}" --slow-query-ms 1000 >"${_dir}/serve.log" 2>&1 &
  _pid=$!
  _i=0
  until printf 'ping\nquit\n' | "${_fm}" client --port "${_port}" >/dev/null 2>&1; do
    _i=$((_i + 1))
    if [ "${_i}" -ge 50 ]; then
      kill "${_pid}" 2>/dev/null || true
      echo "metrics: server never came up on port ${_port}"
      return 1
    fi
    sleep 0.1
  done
  printf 'add 0 1 10 5\nadd 1 2 12 4\npublish\ncount M(3,2) 10 0\nquery M(3,2) 10 0\nquit\n' \
    | "${_fm}" client --port "${_port}" >"${_dir}/client.log"
  "${_fm}" metrics --port "${_port}" >"${_dir}/metrics.txt"
  kill "${_pid}" 2>/dev/null || true
  grep -q '^# TYPE flowmotif_serve_requests_total counter$' "${_dir}/metrics.txt"
  grep -q '^flowmotif_serve_requests_total{verb="query"} 1$' "${_dir}/metrics.txt"
  grep -q '^# TYPE flowmotif_serve_request_duration_seconds histogram$' "${_dir}/metrics.txt"
  grep -q '^flowmotif_serve_request_duration_seconds_count{verb="count"} 1$' "${_dir}/metrics.txt"
  grep -q '^flowmotif_engine_epoch 1$' "${_dir}/metrics.txt"
  grep -q '^flowmotif_stream_publishes_total ' "${_dir}/metrics.txt"
  grep -q '^flowmotif_storage_segment_mapped_bytes ' "${_dir}/metrics.txt"
  grep -q '^flowmotif_serve_pool_jobs_total ' "${_dir}/metrics.txt"
  grep -q '^flowmotif_serve_panics_total 0$' "${_dir}/metrics.txt"
}

stage_protocol_fuzz() {
  # The request parser's seeded fuzz loop with a larger budget than the
  # test stage gives it: no mutated line may panic the parser, and no
  # accepted query spec may carry a non-finite ϕ, a negative δ or an
  # inverted window.
  FLOWMOTIF_PROTOCOL_FUZZ_ITERS=1000000 cargo test -q --release --offline -p flowmotif-serve \
    --lib mutated_request_lines_never_panic_and_accepted_specs_are_valid
}

subscribe_against() {
  # One run of the subscribe stage against `flowmotif serve [args]`
  # on port $2, writing its logs under $1 (a <dir> argument must come
  # first in [args]).
  _fm="target/release/flowmotif"
  _dir="$1"
  _port="$2"
  shift 2
  mkdir -p "${_dir}"
  "${_fm}" serve "$@" --port "${_port}" >"${_dir}/serve.log" 2>&1 &
  _pid=$!
  _i=0
  until printf 'ping\nquit\n' | "${_fm}" client --port "${_port}" >/dev/null 2>&1; do
    _i=$((_i + 1))
    if [ "${_i}" -ge 50 ]; then
      kill "${_pid}" 2>/dev/null || true
      echo "subscribe: server never came up on port ${_port}"
      return 1
    fi
    sleep 0.1
  done
  # The subscriber exits on its own after --limit 2 events.
  "${_fm}" subscribe --port "${_port}" --motif 'M(3,2)' --delta 10 --limit 2 \
    >"${_dir}/events.txt" 2>&1 &
  _sub=$!
  _i=0
  until "${_fm}" metrics --port "${_port}" 2>/dev/null \
      | grep -q '^flowmotif_serve_subscriptions_active 1$'; do
    _i=$((_i + 1))
    if [ "${_i}" -ge 50 ]; then
      kill "${_sub}" "${_pid}" 2>/dev/null || true
      echo "subscribe: subscription never registered"
      return 1
    fi
    sleep 0.1
  done
  # Two disjoint 2-hop chains: each completion is one pushed instance.
  printf 'add 0 1 1 2\nadd 1 2 2 3\nadd 3 4 20 1\nadd 4 5 21 2\nquit\n' \
    | "${_fm}" client --port "${_port}" >"${_dir}/client.log"
  _i=0
  while kill -0 "${_sub}" 2>/dev/null; do
    _i=$((_i + 1))
    if [ "${_i}" -ge 100 ]; then
      kill "${_sub}" "${_pid}" 2>/dev/null || true
      echo "subscribe: subscriber never received its 2 events"
      return 1
    fi
    sleep 0.1
  done
  wait "${_sub}"
  printf 'publish\nquery M(3,2) 10 0\nquit\n' \
    | "${_fm}" client --port "${_port}" >"${_dir}/query.log"
  kill "${_pid}" 2>/dev/null || true
  grep -q '^EVENT id=1 match=0-1-2 flow=2 first=1 last=2 size=2$' "${_dir}/events.txt"
  grep '^EVENT ' "${_dir}/events.txt" | sed 's/.*match=\([^ ]*\).*/\1/' | sort >"${_dir}/pushed.txt"
  grep '^DATA nodes=' "${_dir}/query.log" | sed 's/.*nodes=\([^ ]*\).*/\1/' | sort >"${_dir}/batch.txt"
  [ -s "${_dir}/pushed.txt" ]
  cmp "${_dir}/pushed.txt" "${_dir}/batch.txt"
}

stage_subscribe() {
  # End-to-end standing-query path: serve on a private port, register a
  # standing subscription over the wire, stream appends from a second
  # client session, and require the pushed EVENT lines to agree with a
  # batch re-query of the same motif over the final graph. Run against
  # the in-memory engine, then against a packed segment whose one pair
  # (0, 1) the first append touches, so the sealed base seeds its delta.
  # (`subscribe_against` sets `_dir` and `_port`: sh has no locals.)
  _root="target/subscribe_ci"
  _base_port=$(( 21000 + ($$ % 20000) ))
  rm -rf "${_root}"
  subscribe_against "${_root}/heap" "${_base_port}"
  printf '0 1 100 7\n' >"${_root}/base.txt"
  target/release/flowmotif pack "${_root}/base.txt" --out "${_root}/seg" >/dev/null
  subscribe_against "${_root}/packed" $((_base_port + 1)) "${_root}/seg" --packed
}

stage_segment_fuzz() {
  # The segment reader's seeded mutation loop with a larger budget than
  # the test stage gives it: no corrupt file may panic `open`.
  FLOWMOTIF_SEGMENT_FUZZ_ITERS=100000 cargo test -q --release --offline -p flowmotif-graph \
    --lib mutated_segment_files_open_or_fail_without_panicking
}

stage_docs() {
  # rustdoc must build warning-free and every doctest must pass, so the
  # documented examples cannot drift from the API.
  RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps
  cargo test -q --offline --workspace --doc
}

stage_fmt() {
  cargo fmt --check
}

stage_clippy() {
  # `redundant_clone` (nursery, allow-by-default) is denied on top of
  # warnings: the zero-allocation P2 pipeline only stays zero-allocation
  # if stray clones never creep back into the hot paths.
  cargo clippy --offline --workspace --all-targets -- \
    -D warnings -D clippy::redundant_clone
}

stage build stage_build
stage test stage_test
if [ "$MODE" = "quick" ]; then
  echo "==> quick mode: skipping all-targets, bench-regression, docs, fmt, clippy"
  exit 0
fi
stage all-targets stage_all_targets
stage e2ebench stage_e2ebench
stage bench-regression stage_bench_regression
stage wco stage_wco
stage soak stage_soak
stage out-of-core stage_out_of_core
stage metrics stage_metrics
stage protocol-fuzz stage_protocol_fuzz
stage segment-fuzz stage_segment_fuzz
stage subscribe stage_subscribe
stage docs stage_docs
stage fmt stage_fmt
stage clippy stage_clippy
echo "==> all stages ok"
