.PHONY: all build test bench lint ci clean

all: build

build:
	dune build @all

test:
	dune runtest

# The timing benchmark: crowdbench's four end-to-end workloads, release
# profile, per-layer breakdown (crowdbench/README.md).
bench:
	bash crowdbench/run.sh $(ARGS)

# Static analysis gate: runs crowdmax-lint (tools/lint/) over every
# typedtree in lib/, enforcing the comparison/determinism/domain-safety
# rules documented in CONTRIBUTING.md. Fails on any finding not
# suppressed in tools/lint/allow.txt.
lint:
	dune build @lint

# The CI gate: warnings-as-errors build (the ci dune profile promotes
# the lib/ warning set to errors), the whole test suite, the lint gate,
# a metrics round-trip smoke (a simulated run dumps --metrics JSON,
# metrics-check must accept it), and smoke-scale passes through the
# experiment subcommand so every table stays runnable. opcheck runs the
# engine, planner, adaptive and server scenarios once and fails on any
# drift from their pinned operation counts, on a broken structural
# check, or on >2% drift from the last counters-bearing
# BENCH_history.jsonl row (bench/main.ml, DESIGN.md §7).
ci:
	dune build @all --profile ci
	dune build @all
	dune runtest
	dune build @lint
	dune exec bin/crowdmax_cli.exe -- run --elements 20 --budget 120 \
		--runs 3 --simulated --metrics _build/ci_metrics_smoke.json
	dune exec bin/crowdmax_cli.exe -- metrics-check _build/ci_metrics_smoke.json
	rm -f _build/ci_metrics_smoke.json
	dune exec bin/crowdmax_cli.exe -- experiment ablations --runs 2
	dune exec bench/main.exe -- opcheck
	dune exec bin/crowdmax_cli.exe -- run --elements 60 --budget 200 \
		--runs 2 --simulated --adaptive --refit drift:0.5
	dune exec bin/crowdmax_cli.exe -- experiment fig_adapt --runs 6 -j 4
	dune exec bin/crowdmax_cli.exe -- serve --queries 4 --runs 2 -j 4
	dune exec bin/crowdmax_cli.exe -- experiment fig_server --runs 4 -j 4
	dune exec bin/crowdmax_cli.exe -- experiment findings --runs 2

clean:
	dune clean
