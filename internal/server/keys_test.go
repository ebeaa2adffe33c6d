package server

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"gcsafety/internal/heapdump"
	"gcsafety/internal/pipeline"
)

// The whole-product cache keys derive from the pipeline's stage keys, so
// they cover everything a stage consumes. These tests pin the cases the
// hand-written per-endpoint keys used to miss.

// TestCheckKeyCoversName: diagnostics carry the translation unit's name,
// so two checks of one source under different names must not share a
// cache entry.
func TestCheckKeyCoversName(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const src = "char *f(int bits) { return (char *)bits; }"
	for _, name := range []string{"a.c", "b.c"} {
		resp, data := postJSON(t, ts.URL+"/v1/check", CheckRequest{Name: name, Source: src})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, data)
		}
		var cr CheckResponse
		unmarshalInto(t, data, &cr)
		if len(cr.Warnings) == 0 {
			t.Fatalf("%s: no warnings: %+v", name, cr)
		}
		for _, w := range cr.Warnings {
			if !strings.HasPrefix(w, name+":") {
				t.Errorf("check of %s answered with another file's warning %q", name, w)
			}
		}
	}
}

// TestElidedAnnotateServedByOwner: the peer recipe is the request itself,
// so an elided annotation reaches its owner intact and the owner — not the
// requester — computes it.
func TestElidedAnnotateServedByOwner(t *testing.T) {
	nodes := startPeerCluster(t, 2)
	var req *AnnotateRequest
	for i := 0; i < 1000 && req == nil; i++ {
		r := &AnnotateRequest{Source: fmt.Sprintf("int f(int *p) { return p[%d]; }", i), Elide: true}
		opts, err := r.options()
		if err != nil {
			t.Fatal(err)
		}
		if ownerOf(t, nodes, r.key(opts)) == 1 {
			req = r
		}
	}
	if req == nil {
		t.Fatal("no elided annotate key owned by node 1")
	}
	var resp AnnotateResponse
	if code := nodes[0].post(t, "/v1/annotate", req, &resp); code != http.StatusOK {
		t.Fatalf("annotate: status %d", code)
	}
	if n := nodes[0].srv.annotations.Load(); n != 0 {
		t.Fatalf("requester annotated %d times, want 0: the owner did not serve the recipe", n)
	}
	if n := nodes[1].srv.annotations.Load(); n != 1 {
		t.Fatalf("owner annotated %d times, want 1", n)
	}
}

// TestStageVersionBumpInvalidatesServerCache: the compile entry's key
// chains every stage version, so a server that ships a changed stage
// recompiles instead of serving the program a previous version persisted.
func TestStageVersionBumpInvalidatesServerCache(t *testing.T) {
	dir := t.TempDir()
	body := map[string]any{"source": helloC, "optimize": true, "annotate": "safe"}
	s1, ts1 := newTestServer(t, Config{CacheDir: dir})
	if resp, data := postJSON(t, ts1.URL+"/v1/run", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("first run: %d %s", resp.StatusCode, data)
	}
	if s1.Compiles() != 1 {
		t.Fatalf("compiles = %d, want 1", s1.Compiles())
	}

	restore := pipeline.SetVersionForTest(pipeline.StageCodegen, "v-server-invalidation-test")
	defer restore()
	s2, ts2 := newTestServer(t, Config{CacheDir: dir})
	for i := 0; i < 2; i++ {
		resp, data := postJSON(t, ts2.URL+"/v1/run", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run after the bump: %d %s", resp.StatusCode, data)
		}
		var rr RunResponse
		unmarshalInto(t, data, &rr)
		if rr.CacheHit != (i == 1) {
			t.Fatalf("run %d after the bump: cache_hit = %v", i, rr.CacheHit)
		}
	}
	if s2.Compiles() != 1 {
		t.Fatalf("second server compiled %d times after a codegen bump, want 1", s2.Compiles())
	}
}

// TestFaultedHeapdumpNotCached: a snapshot captured under injected faults
// describes the faults, not the program, so it is never filed — the next
// clean request captures a clean snapshot.
func TestFaultedHeapdumpNotCached(t *testing.T) {
	_, ts := newTestServer(t, Config{AllowFaultHeaders: true})
	var req HeapdumpRequest
	req.Source = heapdumpC
	resp, data := postFaulted(t, ts.URL+"/v1/heapdump", "gc.alloc=error,after=3", "", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("faulted heapdump: %d %s", resp.StatusCode, data)
	}
	var out HeapdumpResponse
	unmarshalInto(t, data, &out)
	if out.Snapshot.Trigger == heapdump.TriggerExit {
		t.Fatal("the injected allocation fault did not fire")
	}

	resp, data = postJSON(t, ts.URL+"/v1/heapdump", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean heapdump: %d %s", resp.StatusCode, data)
	}
	unmarshalInto(t, data, &out)
	if out.CacheHit || out.Snapshot.Trigger != heapdump.TriggerExit {
		t.Fatalf("clean heapdump served the faulted snapshot: cache_hit=%v trigger=%q",
			out.CacheHit, out.Snapshot.Trigger)
	}
}

// TestRunRejectsThreadsBeforeCompiling: an invalid /v1/run is refused
// before it can compile and cache a program.
func TestRunRejectsThreadsBeforeCompiling(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/run", map[string]any{"source": helloC, "threads": maxRunThreads + 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400: %s", resp.StatusCode, data)
	}
	if s.Compiles() != 0 {
		t.Fatalf("an invalid run compiled %d programs", s.Compiles())
	}
}
