#!/bin/sh
# Tier-1 verification gate: build, static checks, tests, benchmark smoke.
# Run from anywhere; operates on the repository root.
set -eu

cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== operator semantics written once =="
# What an operator computes is defined in internal/interp and nowhere else
# (see DESIGN.md, "Operator semantics"): the state-free operators in
# kernel.go, I-structure memory and procedure activations in istructs.go
# and activations.go. An engine that names a unary op, calls the binary
# evaluator, pushes or pops a call frame, or words a unit's error itself
# has started a second copy.
copies=$(grep -rn 'lang\.OpNeg\|lang\.OpNot\|interp\.Apply(\|PushCall(\|PopCall(\|written twice\|never-written\|no call linkage\|never returned' \
    --include='*.go' internal/machine internal/chanexec | grep -v '_test\.go:' || true)
if [ -n "$copies" ]; then
    echo "operator semantics restated outside the kernel:" >&2
    echo "$copies" >&2
    exit 1
fi

echo "== one program form =="
# Both engines read a graph's operator table (dfg.OpTable), built once per
# graph and shared read-only by its runs (see PERFORMANCE.md, "Flat
# program form"): an engine that asks a node for its firing-rule class,
# looks up a step program by node or walks the arc table itself has
# started a second program form.
forms=$(grep -rn 'FiresPerToken(\|MatchSite(\|SplitPhase(\|FusionOf(\|\.Arcs\[' \
    --include='*.go' internal/machine internal/chanexec | grep -v '_test\.go:' || true)
if [ -n "$forms" ]; then
    echo "an engine reads the graph instead of its operator table:" >&2
    echo "$forms" >&2
    exit 1
fi

echo "== the cycle-exact machine is single-threaded =="
# internal/machine starts no goroutine and imports neither sync nor
# runtime: Workers partitions state and nothing else (SCALING.md), and
# host parallelism belongs to the channel engine.
threads=$(grep -nE '^[[:space:]]*go[[:space:]]|"sync"|"runtime"' internal/machine/*.go |
    grep -v '_test\.go:' || true)
if [ -n "$threads" ]; then
    echo "goroutine, sync or runtime in internal/machine:" >&2
    echo "$threads" >&2
    exit 1
fi

echo "== graphs are edited in one place =="
# A dataflow graph is built through dfg.Editor — the translator's builder
# and linker emit into one, and every rewrite lowers a graph into one (see
# DESIGN.md, "One editor") — or read from text inside internal/dfg: any
# other non-test code that makes an empty graph to fill has started a
# private builder, with its own arities and id remapping to get wrong.
builders=$(grep -rn 'dfg\.NewGraph(' --include='*.go' . | grep -v '_test\.go:' |
    grep -v '^\./internal/dfg/' || true)
if [ -n "$builders" ]; then
    echo "dfg.NewGraph called outside internal/dfg:" >&2
    echo "$builders" >&2
    exit 1
fi

echo "== a run is recorded once =="
# The critical path, the causal journal, the event stream and the trace
# read one record of a machine run, obs.Record (see OBSERVABILITY.md,
# "Critical path" and "Event stream"): a second per-firing record, a
# latest-finishing link folded beside it, a journal recorder fed firing by
# firing, or an event sink rendering the run live has started a second
# copy.
twice=$(grep -rnwE 'firingRec|MaxDep|RecordFire|RecordPark|NewRecorder|appendDeps|AddSink|TraceSink|NDJSONSink|RingSink|MultiSink' --include='*.go' . |
    grep -v '_test\.go:' || true)
if [ -n "$twice" ]; then
    echo "a second record of the run:" >&2
    echo "$twice" >&2
    exit 1
fi

echo "== irreducible flow is dispatched, not copied =="
# cfg.MakeReducible gives each region of several entries one dispatch
# header (see DESIGN.md, "Irreducible flow"): linear, and it never fails.
# The code-copying reducer of footnote 5 it replaced grew exponentially
# with the entries of a region; its helpers coming back means a second
# path has.
copying=$(grep -rnw 'jamRegion\|duplicateRegion' --include='*.go' . || true)
if [ -n "$copying" ]; then
    echo "code copying is back:" >&2
    echo "$copying" >&2
    exit 1
fi

echo "== shared ctdf flags are declared once =="
# The flags several ctdf commands share — the program flags (-workload,
# -schema, -cover, …) and the machine flags (-procs, -latency, -workers,
# -binding) — are declared once, in cmd/ctdf/flags.go: a command that
# declares one itself has started a second copy, with a default and help
# text of its own to drift. explain's own -schema and -latency (default
# 4) are the one exception.
flagdups=$(grep -nE '\("(procs|latency|workers|binding|schema|cover|workload)",' cmd/ctdf/*.go |
    grep -v '_test\.go:' | grep -vE '^cmd/ctdf/explain\.go:[0-9]+:.*\("(schema|latency)",' |
    sed -E 's/.*\("([a-z]+)",.*/\1/' | sort | uniq -d)
if [ -n "$flagdups" ]; then
    echo "ctdf flags declared more than once:" >&2
    echo "$flagdups" >&2
    exit 1
fi

echo "== public types are declared once =="
# The root package re-exports the internal types it used to mirror (see
# README.md, "Install & quickstart"): each name below is an alias of the
# type that produces it, so there is no copy to convert to and from. A
# name declared as a type of its own, or a conversion helper of the old
# copies come back, has started a second definition to keep in step.
decls=$(go doc -short . | grep '^type ')
for name in Schema OptPass GraphStats CheckpointRef FaultPlan VetReport VetDiagnostic \
    VetSkip Telemetry TelemetrySnapshot TelemetryServer ObsReport ObsDiff; do
    if ! echo "$decls" | grep -q "^type $name = "; then
        echo "ctdf.$name is not a type alias:" >&2
        echo "$decls" | grep "^type $name " >&2 || echo "(not declared)" >&2
        exit 1
    fi
done
helpers=$(grep -n 'toInternalSchema\|severityOf\|registry()' *.go | grep -v '_test\.go:' || true)
if [ -n "$helpers" ]; then
    echo "a conversion between a public type and its internal original:" >&2
    echo "$helpers" >&2
    exit 1
fi

echo "== vet judges the graph =="
# Whether a switch or merge may be absent is decided from the graph and
# the CFG alone (Theorem 1, Corollary 1; see ANALYSIS.md, "The graph
# optimizer and how vet judges it"). A removal ledger that every edit
# pass must fill in by hand was a bug class; its names coming back means
# a pass has started keeping one again.
ledger=$(grep -rn 'RemovedSwitches\|RemovedMerges\|StmtTok' --include='*.go' . | grep -v '_test\.go:' || true)
if [ -n "$ledger" ]; then
    echo "a removal ledger is back:" >&2
    echo "$ledger" >&2
    exit 1
fi

echo "== the Figure 9 rewrite is written once =="
# The iterative switch elimination §4 opens with is the optimizer's
# sink-switches and eliminate-dead run with the CFG withheld
# (opt.EliminateRedundantSwitches; see DESIGN.md, "internal/opt"). A
# function of that name, or the dead-value sweep of the copy it replaced,
# declared outside internal/opt is a second switch/merge matcher.
figure9=$(grep -rnE 'func (EliminateRedundantSwitches|(\([^)]*\) )?removeDeadPure)\(' --include='*.go' . |
    grep -v '^\./internal/opt/' | grep -v '_test\.go:' || true)
if [ -n "$figure9" ]; then
    echo "the Figure 9 rewrite is written twice:" >&2
    echo "$figure9" >&2
    exit 1
fi

echo "== compile and vet keep no node × token table =="
# The analyses the translator and vet run keep each table the size of
# what it describes: source vectors per token, the builder's wires per
# token in flight, ordering per cover element, guard sets hash-consed (see
# ANALYSIS.md, "Cost"). A make sized by rows, nodes or n times tokens,
# words or memory operations is a dense row per node again, and bytes
# per node grow with the program (TestCompileScalesLinearly).
dense=$(grep -rnE 'make\(\[\][^,]+, *(\((rows|n)\+.*\)|rows|n|len\([^)]*Nodes\))\*[a-z.]*(v|w|words)\)' \
    --include='*.go' internal/analysis internal/translate internal/vet | grep -v '_test\.go:' || true)
if [ -n "$dense" ]; then
    echo "a table dense in nodes × tokens or memory operations:" >&2
    echo "$dense" >&2
    exit 1
fi

echo "== a translation unit is emitted one way =="
# Translate and separate compilation run every translation unit through
# one stage (builder.emit: switch placement, routing, arc reservation,
# build; see DESIGN.md, "internal/translate"). A second call site of
# either analysis, or a result type of the linked path's own, is that
# stage written twice.
for fn in Route PlaceWithLoopControl; do
    sites=$(grep -rn "$fn(" --include='*.go' internal/translate | grep -v '_test\.go:' |
        grep -vE '^[^:]+:[0-9]+:(func |[[:space:]]*//)' || true)
    if [ "$(echo "$sites" | grep -c .)" -gt 1 ]; then
        echo "$fn called from more than one site:" >&2
        echo "$sites" >&2
        exit 1
    fi
done
linkedres=$(grep -rn 'type LinkedResult\b' --include='*.go' internal/translate | grep -v '_test\.go:' || true)
if [ -n "$linkedres" ]; then
    echo "separate compilation has a result type of its own:" >&2
    echo "$linkedres" >&2
    exit 1
fi

echo "== each structure is derived once =="
# The loop nest InsertLoopControl transforms is the []Loop it returns; a
# vet run searches the graph once, one Tarjan search giving the
# post-order and the components; placement and loop needs are iterated
# by one function, analysis.PlaceWithLoopControl, which the translator and
# vet hand their own placement step (see DESIGN.md, "One dominator tree,
# one loop nest" and "internal/vet"). A loop finder over the transformed
# graph, a second function keeping Tarjan's low links, or a loop of its
# own around LoopNeeds is that structure derived twice.
refind=$(grep -rn 'func FindLoops(' --include='*.go' . | grep -v '_test\.go:' || true)
if [ -n "$refind" ]; then
    echo "the loops are found again in the transformed graph:" >&2
    echo "$refind" >&2
    exit 1
fi
searches=$(awk '/^func /{fn=FILENAME": "$0} /low\[/{print fn}' \
    $(find internal/vet -name '*.go' ! -name '*_test.go') | sort -u)
if [ "$(echo "$searches" | grep -c .)" -gt 1 ]; then
    echo "Tarjan's search kept in more than one function of internal/vet:" >&2
    echo "$searches" >&2
    exit 1
fi
# A line calling LoopNeeds( between a for and the brace that closes it
# (gofmt's indentation tells where that is).
fixpoints=$(awk 'FNR==1{ind=-1}
    ind<0 && match($0, /^\t+for[ {]/){ind=RLENGTH-4}
    ind>=0 && /LoopNeeds\(/{print FILENAME":"FNR":"$0}
    ind>=0 && match($0, /^\t+\}/) && RLENGTH-1==ind{ind=-1}' \
    $(find internal/translate internal/vet -name '*.go' ! -name '*_test.go'))
if [ -n "$fixpoints" ]; then
    echo "a placement / loop-need fixpoint outside analysis.PlaceWithLoopControl:" >&2
    echo "$fixpoints" >&2
    exit 1
fi

echo "== vet orders along token lines; one postdominator tree =="
# vet's ordering check walks each cover element's token line instead of
# sweeping reachability per element, and the guard table interns its arm
# lists in chains by arm, without a map; the placement rounds and the
# source vectors run on one set of need rows and one postdominator tree
# (see ANALYSIS.md, "Cost"). A hashed (arm, tail) table, or a second
# function of internal/analysis building a postdominator tree, is that
# work done again.
guardmap=$(grep -n 'map\[uint64\]int32' internal/vet/determinacy.go || true)
if [ -n "$guardmap" ]; then
    echo "the guard table hashes its sets again:" >&2
    echo "$guardmap" >&2
    exit 1
fi
fn='cfg.PostDominators('
callers=$(awk -v pat="$fn" '/^func /{fn=FILENAME": "$0} index($0, pat) && !/^func / && !/^[[:space:]]*\/\//{print fn}' \
    $(find internal/analysis -name '*.go' ! -name '*_test.go') | sort -u)
if [ "$(echo "$callers" | grep -c .)" -gt 1 ]; then
    echo "$fn called from more than one function of internal/analysis:" >&2
    echo "$callers" >&2
    exit 1
fi

echo "== tokens are numbers in the translator =="
# A token's id is its position in the unit's sorted universe, fixed once
# where translate's makeNeed numbers the need rows; the analyses and the
# builder carry only ids, and a name comes back only where text is made
# (see ANALYSIS.md, "Cost"). A TokenID that takes a name, the builder's
# sortedTokens over a name set, or a map keyed by token name in the id
# core of internal/analysis (the name-based entry points the benchmark
# calls live in names.go) is that numbering done again.
numbering=$({ grep -nE 'TokenID\([^)]*string' $(find . -name '*.go' ! -name '*_test.go')
    grep -rn 'sortedTokens(' --include='*.go' internal/translate | grep -v '_test\.go:'
    grep -Hn 'map\[string\]' internal/analysis/tokens.go internal/analysis/switchplace.go internal/analysis/sourcevec.go; } || true)
if [ -n "$numbering" ]; then
    echo "token names are numbered again outside makeNeed:" >&2
    echo "$numbering" >&2
    exit 1
fi

echo "== source vectors are one forward walk =="
# Figure 11 is one pass over the order: SourceVectors visits each node
# once, carrying token sets from row to row, and the entries it does not
# keep come from the same walk carrying one token (see ANALYSIS.md,
# "Source vectors"). Heavy-path chains, a collision re-sweep or a sweep
# per token is a second path to the same answers.
sweeps=$(grep -nE 'chains\(|chainEnd|collided|^func (\([^)]*\) )?[a-zA-Z]*[sS]weep' \
    $(find internal/analysis -name '*.go' ! -name '*_test.go') || true)
if [ -n "$sweeps" ]; then
    echo "source vectors are computed by more than one walk:" >&2
    echo "$sweeps" >&2
    exit 1
fi

echo "== the builder wires as it walks =="
# The translator's builder is the walk of Figure 11: it carries each
# token's wire from row to row and wires merges as it meets them (see
# ANALYSIS.md, "Source vectors"). Reading the plan's source vectors back,
# or resolving a source to a tap through a table, is a second walk.
rewalk=$(grep -rnE 'SourceVectors|\.Sources\(|BackSources\(|tapOf\(' --include='*.go' internal/translate |
    grep -v '_test\.go:' || true)
if [ -n "$rewalk" ]; then
    echo "the translator reads source vectors instead of wiring as it walks:" >&2
    echo "$rewalk" >&2
    exit 1
fi

echo "== alias-cover keeps one walk per question =="
# alias-cover answers each §5 question with one walk: order along each
# cover element's token line, with a plain search for the pairs line and
# guards leave, and the gather as a backward walk of each synch tree; the
# recomputed placement starts from translate.NeedOf (see ANALYSIS.md,
# "Cost"). A condensed-graph reachability sweep, a memoized token tracer,
# a case for linked graphs (which carry no translation metadata, so the
# pass never runs on them) or vet's own copy of the need derivation is a
# second mechanism for one question.
walks=$({ grep -Hn 'type opReach\|tokenTracer\|dfg\.Apply\|dfg\.Param' internal/vet/aliascover.go
    grep -rn 'func baseNeed' --include='*.go' internal/vet | grep -v '_test\.go:'; } || true)
if [ -n "$walks" ]; then
    echo "alias-cover or vet's placement keeps a second mechanism:" >&2
    echo "$walks" >&2
    exit 1
fi

echo "== the front end scans the source in place =="
# The lexer reads the source string a byte at a time, decoding a rune only
# at a byte >= 0x80, and classifies keywords and operators by switch; the
# parser takes precedence and operator from the token; cfg.Build compacts
# its graph in place, marking reachability in a []bool (see PERFORMANCE.md,
# "The compile side: the front end"). A []rune copy of the source, a
# string-keyed keyword, precedence or operator table, or a map-keyed
# reach set is that front end's per-character and per-token cost again.
frontend=$({ grep -nE '\[\]rune\(|^(var )?[[:space:]]*[A-Za-z_]+ += map\[string\]' \
    $(find internal/lang -name '*.go' ! -name '*_test.go')
    grep -Hn 'map\[int\]bool' internal/cfg/build.go; } || true)
if [ -n "$frontend" ]; then
    echo "the front end copies the source or looks tokens up in maps:" >&2
    echo "$frontend" >&2
    exit 1
fi

echo "== go test =="
go test ./...

echo "== go test -race =="
# The one -race run. The machine itself starts no goroutine (the gate
# above), so what -race holds is, each runnable alone with -run:
# ConcurrentRuns (root package) — goroutines sharing one *Dataflow across
# machine runs at several worker counts, the channel engine and vet; the
# channel engine's own suites (internal/chanexec) — a goroutine per
# operator; internal/vet — every vet run forks its passes onto goroutines
# that share the graph and two analyses solved once; Checkpoint
# (internal/machine) — sinks and resumes driven by the recovery
# supervisor (ROBUSTNESS.md). ConcurrentRuns runs ten times more, so vet's
# passes meet in more interleavings.
go test -race -timeout 5m ./...
go test -race -count=10 -run TestConcurrentRunsShareADataflow .

echo "== chaos smoke matrix =="
go run ./cmd/ctdf chaos -smoke

echo "== recovery matrix =="
# Every transient fault class × engine × schema × workload × workers
# {1,4} must be survived byte-identically by the supervisor, with zero
# leaked goroutines; exit is non-zero on any unrecovered cell. The JSON
# goes to a temp path: its `deadline` cells depend on wall time, so
# writing artifacts/recover.json here would dirty the tree on every run
# (ROBUSTNESS.md has the command that refreshes it on purpose).
go run ./cmd/ctdf chaos -recover -json /tmp/ctdf-verify.recover.json
rm -f /tmp/ctdf-verify.recover.json

echo "== vet suite (plain + optimized) =="
# Every committed workload × schema must verify statically clean, both
# as translated and after the graph optimizer — whose certificate vet
# validates rather than trusts (see ANALYSIS.md). The run rewrites the
# committed snapshot artifacts/vet.json, which must come out unchanged:
# a verifier change that moves any verdict shows up as a diff here.
go run ./cmd/ctdf vet -suite -optimize -jsonfile artifacts/vet.json
git diff --exit-code artifacts/vet.json

echo "== replay divergence gate =="
# Record and replay every serializable workload × schema, plain and
# optimized, at worker counts 1 and 4: the machine is deterministic, so
# every journal must reproduce with zero divergences
# (see OBSERVABILITY.md).
go run ./cmd/ctdf replay -suite

echo "== pprof export acceptance =="
# The hand-rolled profile.proto encoding must be accepted by go tool pprof.
go run ./cmd/ctdf trace -workload running-example -latency 4 \
    -pprof /tmp/ctdf-verify.pprof.pb.gz >/dev/null
go tool pprof -raw /tmp/ctdf-verify.pprof.pb.gz >/dev/null
rm -f /tmp/ctdf-verify.pprof.pb.gz

echo "== benchmark smoke =="
go test -run=NONE -bench='BenchmarkE11|BenchmarkObs|BenchmarkTelemetry|BenchmarkVet|BenchmarkMachineRun|BenchmarkLaneSweep|BenchmarkCompile' -benchtime=1x . ./internal/vet ./internal/machine

echo "== /metrics endpoint smoke =="
# Serve the telemetry registry over real HTTP, run an instrumented
# sharded workload, scrape /metrics, check OpenMetrics framing, and
# require zero leaked goroutines after Close (see OBSERVABILITY.md).
go test -run 'TestMetricsHTTPSmoke' -count=1 .

echo "== OK =="
