package fuzz

import (
	"errors"
	"fmt"
	"testing"

	"gcsafety/internal/cc/ast"
	"gcsafety/internal/cc/parser"
	"gcsafety/internal/faultinject"
	"gcsafety/internal/interp"
	"gcsafety/internal/machine"
)

// FuzzDifferential is the native fuzzing entry point for the differential
// property: the fuzzer mutates the byte string that drives the program
// generator, and every resulting program must agree with its model under
// every must-agree treatment. One machine is fuzzed per input to keep the
// per-execution cost down; the seeded deterministic tests cover the full
// machine set. Run with:
//
//	go test -fuzz=FuzzDifferential -fuzztime=30s ./internal/fuzz
func FuzzDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{6, 6, 6, 6})
	f.Add([]byte{3, 7, 200, 41, 0, 0, 99, 5})
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1, 0, 255, 13})
	f.Add([]byte("the quick brown fox jumps over the lazy dog"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		p := GenerateBytes(data)
		m, err := RunMatrix(p, MatrixOptions{
			Machines: []machine.Config{machine.SPARCstation10()},
		})
		if err != nil {
			t.Fatalf("harness failure: %v\n%s", err, p.Source)
		}
		if len(m.Violations) > 0 {
			bad := m.Violations[0]
			reduced := ReduceViolation(p, bad)
			t.Fatalf("matrix violation (reduced to %d lines):\n%s\nreduced repro:\n%s",
				CountLines(reduced), Describe(p, m.Violations), reduced)
		}
	})
}

// probeFrame embeds a fuzzer-supplied expression in a translation unit that
// declares every name the round-trip generator uses, mirroring the frame in
// internal/cc/parser's round-trip tests.
const probeFrame = `struct st { int f; };
struct pt { int g; };
int fn(int x, int y);
int a; int b;
char *p;
int arr[10];
struct st s;
struct pt *q;
int probe() { return %s; }
`

func parseProbeExpr(text string) (ast.Expr, bool) {
	f, err := parser.Parse("probe.c", fmt.Sprintf(probeFrame, text))
	if err != nil {
		return nil, false
	}
	fd := f.FuncByName("probe")
	if fd == nil || len(fd.Body.Stmts) != 1 {
		return nil, false
	}
	ret, ok := fd.Body.Stmts[0].(*ast.Return)
	if !ok || ret.X == nil {
		return nil, false
	}
	return ret.X, true
}

// FuzzParserRoundtrip is the native fuzzing entry point for the printer:
// any expression the parser accepts must round-trip through PrintExpr to a
// fixpoint, and constant expressions must evaluate identically before and
// after. Run with:
//
//	go test -fuzz=FuzzParserRoundtrip -fuzztime=30s ./internal/fuzz
func FuzzParserRoundtrip(f *testing.F) {
	f.Add("a + b * 3")
	f.Add("(p[2] ? s.f : q->g) << 4")
	f.Add("fn(a, b) , ~arr[a & 7]")
	f.Add("-(-(-1))")
	g := NewExprGenSeed(1996)
	leaves := []string{"a", "b", "s.f", "q->g", "arr[a]", "p[b]"}
	for i := 0; i < 12; i++ {
		f.Add(g.Expr(4, leaves))
	}
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 1024 {
			return
		}
		e1, ok := parseProbeExpr(text)
		if !ok {
			return // not a valid expression: out of scope
		}
		p1 := ast.PrintExpr(e1)
		e2, ok := parseProbeExpr(p1)
		if !ok {
			t.Fatalf("printed form does not re-parse:\n  original: %s\n  printed:  %s", text, p1)
		}
		p2 := ast.PrintExpr(e2)
		if p1 != p2 {
			t.Fatalf("print/parse not a fixpoint:\n  original: %s\n  first:    %s\n  second:   %s", text, p1, p2)
		}
		v1, const1 := parser.EvalConst(e1)
		v2, const2 := parser.EvalConst(e2)
		if const1 != const2 || (const1 && v1 != v2) {
			t.Fatalf("constant value drifted across round trip: %s: (%d,%v) vs (%d,%v)",
				text, v1, const1, v2, const2)
		}
	})
}

// faultFuzzSpecs is the rotation of injection specs the fault fuzzer
// draws from — one entry per fault-point-reachable error path in the
// interpreter/collector stack.
var faultFuzzSpecs = []string{
	"gc.alloc=error,p=0.3,msg=fuzz-oom",
	"gc.alloc=error,after=10,msg=fuzz-oom-late",
	"gc.collect.force=error,p=0.5",
	"interp.step=error,msg=fuzz-abort",
	"gc.alloc=error,p=0.1;gc.collect.force=error,p=0.3;interp.step=error,p=0.2",
	// Stage-graph build points (internal/pipeline): a firing rule fails
	// the treatment's build at that stage boundary, which must classify
	// exactly like an injected run-time fault. Error actions only — sleeps
	// would slow the fuzzer without adding coverage, and panics are the
	// chaos suite's job.
	"pipeline.parse=error,p=0.5,msg=fuzz-parse",
	"pipeline.annotate=error,p=0.5,msg=fuzz-annotate",
	"pipeline.codegen=error,p=0.4;pipeline.optimize=error,p=0.4",
	"pipeline.lex=error,p=0.3;pipeline.typecheck=error,p=0.3;pipeline.peephole=error,p=0.5",
	"pipeline.codegen=error,p=0.2;gc.alloc=error,p=0.2;interp.step=error,p=0.2",
}

// FuzzFaultInjection fuzzes the treatment matrix under injected faults:
// the generator bytes shape the program as in FuzzDifferential, and
// (sel, seed) pick a fault schedule. The property is that chaos in the
// simulated program never breaks the harness:
//
//   - RunMatrix classifies every outcome (no harness-level error);
//   - every faulting must-agree treatment traces back to the injection
//     (errors.Is ErrInjected) — a fault that does NOT is a genuine
//     collector or interpreter bug surfaced by the hostile schedule;
//   - a must-agree treatment that silently diverges (no error) under
//     error/latency-free state injection is likewise a genuine bug.
//
// Run with:
//
//	go test -fuzz=FuzzFaultInjection -fuzztime=30s ./internal/fuzz
func FuzzFaultInjection(f *testing.F) {
	// One seed per rotation entry, over allocation-heavy generator bytes
	// so gc.alloc and gc.collect.force are genuinely reachable.
	f.Add([]byte{6, 6, 6, 6}, byte(0), uint64(1))
	f.Add([]byte{3, 7, 200, 41, 0, 0, 99, 5}, byte(1), uint64(2))
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1, 0, 255, 13}, byte(2), uint64(3))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), byte(3), uint64(4))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, byte(4), uint64(5))
	f.Add([]byte{6, 6, 6, 6}, byte(5), uint64(6))
	f.Add([]byte{3, 7, 200, 41, 0, 0, 99, 5}, byte(6), uint64(7))
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1, 0, 255, 13}, byte(7), uint64(8))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), byte(8), uint64(9))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, byte(9), uint64(10))
	f.Fuzz(func(t *testing.T, data []byte, sel byte, seed uint64) {
		if len(data) > 48 {
			data = data[:48]
		}
		spec := faultFuzzSpecs[int(sel)%len(faultFuzzSpecs)]
		set, err := faultinject.Parse(spec, seed)
		if err != nil {
			t.Fatalf("rotation spec %q does not parse: %v", spec, err)
		}
		p := GenerateBytes(data)
		m, err := RunMatrix(p, MatrixOptions{
			Machines: []machine.Config{machine.SPARCstation10()},
			Faults:   set,
			// Bound each treatment so fuzzer-grown programs (whose forced
			// collections are quadratic in live data) cannot stall a run.
			MaxInstrs: 300_000,
		})
		if err != nil {
			t.Fatalf("harness failure under %q: %v\n%s", spec, err, p.Source)
		}
		for _, r := range m.Violations {
			if r.Err == nil {
				t.Fatalf("silent divergence under %q (not traceable to injection):\n%s\n%s",
					spec, Describe(p, []TreatmentResult{r}), p.Source)
			}
			if !errors.Is(r.Err, faultinject.ErrInjected) && !errors.Is(r.Err, interp.ErrInstrLimit) {
				t.Fatalf("organic fault under %q [%s]: %v\n%s",
					spec, r.Name(), r.Err, p.Source)
			}
		}
	})
}
