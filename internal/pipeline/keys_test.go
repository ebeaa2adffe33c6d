package pipeline

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"gcsafety/internal/artifact"
	"gcsafety/internal/engine"
	"gcsafety/internal/gcsafe"
	"gcsafety/internal/machine"
	"gcsafety/internal/workloads"
)

// TestStageKeysPinned pins every stage key of cordtest's
// Optimize+Annotate+Post build on ss10, with and without Elide. The disk
// tier files the compiled-program stages under these keys, so a refactor
// of Build or of the key derivation must not silently move them: warm
// stage tiers would go cold.
func TestStageKeysPinned(t *testing.T) {
	w, ok := workloads.ByName("cordtest")
	if !ok {
		t.Fatal("cordtest workload missing")
	}
	for _, tc := range []struct {
		elide bool
		want  map[Stage]artifact.Key
	}{
		{false, map[Stage]artifact.Key{
			StageLex:       "393cda07fe4893cab5e02c662098c8fa6048b42672a6a1b3686f30dfb5468470",
			StageParse:     "15b25c7d06fbbefc8cc241d02d3c2308ba36d1505087e9fb8ecae24fb6c0418f",
			StageTypecheck: "0f2c3d8e50b08e0353b3a51dc18e4816feee83c6fa8bd44a4339a9a617a6b962",
			StageAnnotate:  "2587be6598a7c78d2b73eb725bad1c69c54f85f8dbff77fd0ad0b0e48fb82d36",
			StageCodegen:   "3fcdd7dfa473870d5fa7ab676db977d5d960083385b7aef266af0b1c0159a9a5",
			StageOptimize:  "7a969533f4f4153652d44928e95d6e579506b27929af89acf06b42dc850ed772",
			StagePeephole:  "03f1a3f4633ffa06bfbd8dc7cbbeca2e78746e52acf2ad2b7f862dfa265ea18a",
		}},
		{true, map[Stage]artifact.Key{
			StageLex:       "393cda07fe4893cab5e02c662098c8fa6048b42672a6a1b3686f30dfb5468470",
			StageParse:     "15b25c7d06fbbefc8cc241d02d3c2308ba36d1505087e9fb8ecae24fb6c0418f",
			StageTypecheck: "0f2c3d8e50b08e0353b3a51dc18e4816feee83c6fa8bd44a4339a9a617a6b962",
			StageLiveness:  "0192ccee3fef59771edf7276ebff54220097075c8cd65cd058836dd1cc044443",
			StageAnnotate:  "547933d54c5c693293a7fcc0f6b7c47c76562c651f7a2cdf35d69d6607cd754b",
			StageCodegen:   "a5266313cb713509db7cadb84ca29d93c4f08d6fd06763b996fa47e4dc87a72f",
			StageOptimize:  "a35babc8ce4466f18ef12c8acc0ba6de77f1d8fe784a7b588867c5fdc0c38528",
			StagePeephole:  "28f3487fe058593500b9a8242951848018cda5e50f7484c08856258863f88185",
		}},
	} {
		opts := Options{
			Annotate:        true,
			AnnotateOptions: gcsafe.Options{Elide: tc.elide},
			Optimize:        true,
			Post:            true,
			Machine:         machine.SPARCstation10(),
		}
		r := NewRunner(artifact.New(0))
		if _, err := r.Build(context.Background(), w.Name+".c", w.Source, opts); err != nil {
			t.Fatal(err)
		}
		if n := r.Cache().Len(); n != len(tc.want) {
			t.Errorf("elide=%v: build filed %d artifacts, want %d", tc.elide, n, len(tc.want))
		}
		for st, key := range tc.want {
			if _, ok := r.Cache().Get(key); !ok {
				t.Errorf("elide=%v: no %s artifact under its pinned key %s", tc.elide, st, key)
			}
		}
		if got := BuildKey(w.Name+".c", w.Source, opts); got != tc.want[StagePeephole] {
			t.Errorf("elide=%v: BuildKey = %s, want the peephole key", tc.elide, got)
		}
		if got := AnnotateKey(w.Name+".c", w.Source, opts.AnnotateOptions); got != tc.want[StageAnnotate] {
			t.Errorf("elide=%v: AnnotateKey = %s, want the annotate key", tc.elide, got)
		}
	}
}

// TestBuildKeyTracksVersionBumps: every stage a build walks chains its
// version into the build key, so callers keyed on BuildKey or AnnotateKey
// are invalidated by any bump of a stage they depend on — and only then.
func TestBuildKeyTracksVersionBumps(t *testing.T) {
	const name, src = "t.c", "int main() { return 0; }"
	opts := Options{Annotate: true, AnnotateOptions: gcsafe.Options{Elide: true}, Optimize: true, Post: true,
		Machine: machine.SPARCstation10()}
	build := BuildKey(name, src, opts)
	ann := AnnotateKey(name, src, opts.AnnotateOptions)
	for _, st := range Stages() {
		restore := SetVersionForTest(st, "bumped")
		if BuildKey(name, src, opts) == build {
			t.Errorf("%s: build key unchanged across a version bump", st)
		}
		annMoved := AnnotateKey(name, src, opts.AnnotateOptions) != ann
		upstream := st == StageLex || st == StageParse || st == StageTypecheck || st == StageLiveness || st == StageAnnotate
		if annMoved != upstream {
			t.Errorf("%s: annotate key moved = %v, want %v", st, annMoved, upstream)
		}
		restore()
	}
	if BuildKey(name, src, opts) != build {
		t.Fatal("build key not restored")
	}
}

// keyExemptions names every option leaf allowed to leave its key
// unchanged under perturbation, the condition under which it may, and
// the reason. Any other leaf — including one added after this table was
// written — must move its key; an exempt leaf must leave it put.
var keyExemptions = []struct {
	leaf    string // a leaf path; "X.*" covers every leaf under X
	applies func(Options, engine.Options) bool
	reason  string
}{
	{"AnnotateOptions.*", func(b Options, _ engine.Options) bool { return !b.Annotate },
		"annotator options reach no stage while Annotate is false"},
	{"SchedSeed", func(_ Options, e engine.Options) bool { return e.Threads <= 1 },
		"the seed selects no interleaving while Threads <= 1"},
	{"Faults", func(Options, engine.Options) bool { return true },
		"a fault-armed run is never cached: RunKey reports it not cacheable"},
}

// exemption returns the reason path is exempt under the base options, or
// "" when perturbing it must move the key.
func exemption(path string, b Options, e engine.Options) string {
	for _, x := range keyExemptions {
		match := x.leaf == path || strings.HasSuffix(x.leaf, ".*") && strings.HasPrefix(path, strings.TrimSuffix(x.leaf, "*"))
		if match && x.applies(b, e) {
			return x.reason
		}
	}
	return ""
}

// leaf is one leaf field of an options struct: its dotted path and its
// reflect index path.
type leaf struct {
	path  string
	index []int
}

// leaves lists every leaf field of the struct type t, descending into
// nested structs.
func leaves(t reflect.Type, prefix string, index []int) []leaf {
	var out []leaf
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		idx := append(append([]int(nil), index...), i)
		if f.Type.Kind() == reflect.Struct {
			out = append(out, leaves(f.Type, prefix+f.Name+".", idx)...)
			continue
		}
		out = append(out, leaf{prefix + f.Name, idx})
	}
	return out
}

// perturb changes one leaf to a different value of its type.
func perturb(t *testing.T, path string, f reflect.Value) {
	t.Helper()
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(f.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f.SetUint(f.Uint() + 1)
	case reflect.String:
		f.SetString(f.String() + "x")
	case reflect.Pointer:
		f.Set(reflect.New(f.Type().Elem()))
	default:
		t.Fatalf("%s: no perturbation for a %s field; teach perturb and the key functions about it", path, f.Kind())
	}
}

// TestKeysCoverEveryOption is the exhaustiveness guard of the key
// derivation: it perturbs every leaf of pipeline.Options (through
// gcsafe.Options, machine.Config and CostModel) and of engine.Options,
// and asserts that the build or run key moves, unless keyExemptions
// exempts the leaf.
func TestKeysCoverEveryOption(t *testing.T) {
	const name, src = "t.c", "int main() { return 0; }"
	for _, annotate := range []bool{true, false} {
		base := Options{Annotate: annotate, Machine: machine.SPARCstation10()}
		want := BuildKey(name, src, base)
		for _, l := range leaves(reflect.TypeOf(base), "", nil) {
			o := base
			perturb(t, l.path, reflect.ValueOf(&o).Elem().FieldByIndex(l.index))
			why := exemption(l.path, base, engine.Options{})
			if moved := BuildKey(name, src, o) != want; moved != (why == "") {
				t.Errorf("Annotate=%v: perturbing %s moved the build key = %v (exemption: %q)", annotate, l.path, moved, why)
			}
		}
	}
	base := Options{Machine: machine.SPARCstation10()}
	build := BuildKey(name, src, base)
	if BuildKey("u.c", src, base) == build {
		t.Error("the translation unit's name does not reach the build key")
	}
	if BuildKey(name, src+" ", base) == build {
		t.Error("the source does not reach the build key")
	}

	for _, threads := range []int{2, 1} {
		eb := engine.Options{Config: machine.SPARCstation10(), Threads: threads}
		want, ok := RunKey(build, eb)
		if !ok {
			t.Fatal("a fault-free run is not cacheable")
		}
		for _, l := range leaves(reflect.TypeOf(eb), "", nil) {
			o := eb
			perturb(t, l.path, reflect.ValueOf(&o).Elem().FieldByIndex(l.index))
			got, ok := RunKey(build, o)
			if l.path == "Faults" {
				if ok {
					t.Error("a fault-armed run is cacheable")
				}
				continue
			}
			why := exemption(l.path, base, eb)
			if moved := got != want; moved != (why == "") {
				t.Errorf("Threads=%d: perturbing %s moved the run key = %v (exemption: %q)", threads, l.path, moved, why)
			}
		}
	}
	other, _ := RunKey(BuildKey("u.c", src, base), engine.Options{})
	if same, _ := RunKey(build, engine.Options{}); same == other {
		t.Error("the build key does not reach the run key")
	}
}
