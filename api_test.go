package gcsafety

import (
	"strings"
	"testing"

	"gcsafety/internal/interp"
	"gcsafety/internal/machine"
)

const apiProgram = `
int main() {
    char *s = (char *)GC_malloc(32);
    strcpy(s, "public api");
    print_str(s + 7);
    return 0;
}
`

func TestAnnotateAPI(t *testing.T) {
	res, err := Annotate("api.c", apiProgram, Safe())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Output, "KEEP_LIVE(s + 7, s)") {
		t.Fatalf("annotated output:\n%s", res.Output)
	}
	chk, err := Annotate("api.c", apiProgram, Checked())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chk.Output, "GC_same_obj") {
		t.Fatalf("checked output:\n%s", chk.Output)
	}
}

func TestRunAPI(t *testing.T) {
	res, err := Run("api.c", apiProgram, Pipeline{
		Annotate:        true,
		AnnotateOptions: Safe(),
		Optimize:        true,
		Postprocess:     true,
		Exec:            interp.Options{Validate: true, GCEveryInstrs: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exec.Output != "api" {
		t.Fatalf("output = %q", res.Exec.Output)
	}
	if res.Annotate == nil || res.Annotate.Inserted == 0 {
		t.Fatal("annotation result missing")
	}
	if res.Program.Size() == 0 {
		t.Fatal("empty program")
	}
}

func TestBuildAPI(t *testing.T) {
	cfg := machine.Pentium90()
	prog, ann, err := Build("api.c", apiProgram, Pipeline{Optimize: true, Machine: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if ann != nil {
		t.Fatal("annotation result should be nil when annotation is off")
	}
	if _, ok := prog.Funcs["main"]; !ok {
		t.Fatal("main not compiled")
	}
}

func TestParseAPI(t *testing.T) {
	f, err := Parse("api.c", apiProgram)
	if err != nil {
		t.Fatal(err)
	}
	if f.FuncByName("main") == nil {
		t.Fatal("main not found")
	}
	if _, err := Parse("bad.c", "int f( {"); err == nil {
		t.Fatal("parse error not reported")
	}
}

func TestRunAPIErrors(t *testing.T) {
	if _, err := Run("bad.c", "not C at all @@@", Pipeline{}); err == nil {
		t.Fatal("expected an error")
	}
	if _, err := Run("none.c", "int f() { return 0; }", Pipeline{
		Exec: interp.Options{Entry: "main"},
	}); err == nil {
		t.Fatal("missing main not reported")
	}
	if _, err := Run("p90.c", "int main() { return 0; }", Pipeline{
		Exec: interp.Options{Config: machine.Pentium90()},
	}); err == nil || !strings.Contains(err.Error(), "Pentium 90") {
		t.Fatalf("Exec.Config differing from the build machine not reported: %v", err)
	}
}
