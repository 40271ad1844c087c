package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// refValue is the workspace value's JSON shape with encoding/json's own
// []float64 parts: the reference the floats codec is held to.
type refValue struct {
	Name string    `json:"name"`
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Kind string    `json:"kind"`
	Re   []float64 `json:"re,omitempty"`
	Im   []float64 `json:"im,omitempty"`
	Text string    `json:"text,omitempty"`
}

// oneSession makes a daemon with one session and returns both.
func oneSession(t testing.TB) (*Server, string) {
	t.Helper()
	srv := New(Options{Engine: core.Options{Tier: core.TierJIT}})
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	rec := serve(t, srv, "POST", "/sessions", nil)
	var v struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	return srv, v.ID
}

// boundAs reports how the session's variable name differs from what
// encoding/json decodes body into, or "" when it binds the same shape,
// kind and bits.
func boundAs(srv *Server, id, name string, body []byte) string {
	var ref refValue
	if err := json.Unmarshal(body, &ref); err != nil {
		return fmt.Sprintf("the daemon bound a body encoding/json refuses: %v", err)
	}
	sess := srv.lookup(id)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	mv, ok := sess.eng.Workspace(name)
	if !ok {
		return "nothing is bound"
	}
	if ref.Kind == "char" {
		if mv.Text() != ref.Text {
			return fmt.Sprintf("text %q, want %q", mv.Text(), ref.Text)
		}
		return ""
	}
	if mv.Rows() != ref.Rows || mv.Cols() != ref.Cols {
		return fmt.Sprintf("shape %dx%d, want %dx%d", mv.Rows(), mv.Cols(), ref.Rows, ref.Cols)
	}
	if complex := mv.Im() != nil; complex != (len(ref.Im) > 0) {
		return fmt.Sprintf("complex is %v, want %v", complex, !complex)
	}
	if d := sameBits("re", mv.Re(), ref.Re); d != "" {
		return d
	}
	return sameBits("im", mv.Im(), ref.Im)
}

func sameBits(part string, got, want []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%s = %v, want %v", part, got, want)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("%s[%d] = %v (%#x), want %v (%#x)", part, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return ""
}

// TestWorkspaceCodecIsEncodingJSON: a PUT binds the bits json.Unmarshal
// into []float64 gives, under every envelope encoding/json accepts; an
// element that is not a number, or out of range, is a 400; and a GET
// answers json.Marshal of the value plus a newline.
func TestWorkspaceCodecIsEncodingJSON(t *testing.T) {
	srv, id := oneSession(t)
	path := "/sessions/" + id + "/workspace/x"
	for _, body := range []string{
		`{"rows":1,"cols":7,"kind":"double","re":[-0,5e-324,2.2250738585072014e-308,1.7976931348623157e308,1e-7,1e21,0.1]}`,
		`{"rows":1,"cols":4,"re":[-1E-7,-0.0,123456789012345678901234567890,4.9406564584124654e-324]}`,
		`{"rows":1,"cols":3,"re":[null,2,null]}`,
		`{"rows":0,"cols":0,"re":null}`,
		`{"rows":1,"cols":2,"re":[1,2],"im":null}`,
		`{"rows":0,"cols":0,"re":[]}`,
		`{"ROWS":1,"Cols":2,"RE":[3,4],"iM":[0,-1]}`,
		`{"rows":1,"cols":2,"re":[9,9,9],"re":[1,null]}`,
		`{"rows":1,"cols":2,"re":[1,2],"re":null,"re":[null,4]}`,
		`{"rows":1,"cols":2,"re":[1,2,3],"re":[5],"re":[null,null]}`,
		`{"rows":1,"cols":1,"re":[1],"extra":{"re":[1,"x"]},"more":null,"im":[]}`,
		"\t{ \"rows\" :\t1 ,\n\"cols\": 2,\r\n \"re\" : [ 1.5 ,\n -2e3 ] , \"im\":[ null , 1 ] }\n ",
		`{"rows":1,"cols":2,"kind":"complex","re":[1,2],"im":[0,-0.5]}`,
		`{"rows":1,"cols":3,"kind":"char","text":"a<b"}`,
	} {
		rec := serve(t, srv, "PUT", path, []byte(body))
		if rec.Code != http.StatusNoContent {
			t.Errorf("PUT %s: %d %s, want 204", body, rec.Code, rec.Body)
			continue
		}
		if d := boundAs(srv, id, "x", []byte(body)); d != "" {
			t.Errorf("PUT %s: %s", body, d)
		}
	}
	for _, el := range []string{`1e400`, `-1e400`, `"1"`, `true`, `[1]`, `{}`} {
		body := `{"rows":1,"cols":2,"re":[1,` + el + `]}`
		if rec := serve(t, srv, "PUT", "/sessions/"+id+"/workspace/bad", []byte(body)); rec.Code != http.StatusBadRequest {
			t.Errorf("PUT %s: %d %s, want 400", body, rec.Code, rec.Body)
		}
		body = `{"rows":1,"cols":2,"re":[1,2],"im":[` + el + `,1]}`
		if rec := serve(t, srv, "PUT", "/sessions/"+id+"/workspace/bad", []byte(body)); rec.Code != http.StatusBadRequest {
			t.Errorf("PUT %s: %d %s, want 400", body, rec.Code, rec.Body)
		}
	}
	if rec := serve(t, srv, "GET", "/sessions/"+id+"/workspace/bad", nil); rec.Code != http.StatusNotFound {
		t.Errorf("a refused PUT bound a value: GET %d %s", rec.Code, rec.Body)
	}

	// GET bytes: json.Marshal of the value, through every float format
	// encoding/json picks (fixed, exponent, signed zero, subnormal).
	rng := rand.New(rand.NewPCG(1, 2))
	re := []float64{-0.0, 5e-324, 1e-7, 1e-6, 1e20, 1e21, 0.1, -123.456, math.MaxFloat64}
	for range 200 {
		re = append(re, math.Float64frombits(rng.Uint64()&^(0x7ff<<52)|uint64(rng.IntN(0x7ff))<<52))
	}
	im := make([]float64, len(re))
	for i := range im {
		im[i] = rng.NormFloat64() * math.Pow(10, float64(rng.IntN(40)-20))
	}
	for _, want := range []refValue{
		{Name: "x", Rows: 1, Cols: len(re), Kind: "double", Re: re},
		{Name: "x", Rows: len(re), Cols: 1, Kind: "complex", Re: re, Im: im},
		{Name: "x", Rows: 1, Cols: 9, Kind: "char", Text: `<a href="&">`},
	} {
		put, _ := json.Marshal(want)
		if rec := serve(t, srv, "PUT", path, put); rec.Code != http.StatusNoContent {
			t.Fatalf("PUT %.60s...: %d %s", put, rec.Code, rec.Body)
		}
		sess := srv.lookup(id)
		sess.mu.Lock()
		mv, _ := sess.eng.Workspace("x")
		now := refValue{Name: "x", Rows: mv.Rows(), Cols: mv.Cols(), Kind: mv.Kind().String()}
		if mv.Kind().IsNumeric() {
			now.Re, now.Im = append([]float64(nil), mv.Re()...), append([]float64(nil), mv.Im()...)
		} else {
			now.Text = mv.Text()
		}
		sess.mu.Unlock()
		marshalled, err := json.Marshal(now)
		if err != nil {
			t.Fatal(err)
		}
		rec := serve(t, srv, "GET", path, nil)
		if got := rec.Body.Bytes(); rec.Code != http.StatusOK || !bytes.Equal(got, append(marshalled, '\n')) {
			t.Fatalf("GET %s: %d\n%s\nwant\n%s", want.Kind, rec.Code, got, marshalled)
		}
		if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(rec.Body.Len()) {
			t.Errorf("GET %s: Content-Length %q for %d bytes", want.Kind, cl, rec.Body.Len())
		}
	}
}

// TestFloatsDecodeIntoOneExactSlice: a part's parse allocates its result,
// of exactly the element count, and nothing per element.
func TestFloatsDecodeIntoOneExactSlice(t *testing.T) {
	data := []byte("[ -0, 5e-324 ,null,1.7976931348623157e308,\n0.1, -12345.678e-3 ]")
	var f floats
	allocs := testing.AllocsPerRun(100, func() {
		f = nil
		if err := f.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 || len(f) != 6 || cap(f) != 6 {
		t.Fatalf("%d allocations for %v (cap %d), want 1 of exactly 6 elements", int(allocs), f, cap(f))
	}
}

// TestNilLoggerIsNeverEnabled: a server given no Logger is enabled at no
// level, so timed and the eval line build no record for it.
func TestNilLoggerIsNeverEnabled(t *testing.T) {
	srv, _ := oneSession(t)
	for _, l := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError} {
		if srv.logger.Enabled(context.Background(), l) {
			t.Errorf("the discarding logger is enabled at %v", l)
		}
	}
}

// TestWorkspaceGetNonFinite: JSON has no NaN or ±Inf, so a GET of a
// value holding one is a 422 of kind non_finite naming the first such
// element, not a 200 with an empty body; and writeJSON answers a value
// that does not encode with a 500 it has encoded first.
func TestWorkspaceGetNonFinite(t *testing.T) {
	srv, id := oneSession(t)
	eval, _ := json.Marshal(evalRequest{Src: "x = [1 NaN Inf]; y = -Inf; z = [2 3];"})
	if rec := serve(t, srv, "POST", "/sessions/"+id+"/eval", eval); rec.Code != http.StatusOK {
		t.Fatalf("eval: %d %s", rec.Code, rec.Body)
	}
	for name, elem := range map[string]string{"x": "re[1] is NaN", "y": "re[0] is -Inf"} {
		rec := serve(t, srv, "GET", "/sessions/"+id+"/workspace/"+name, nil)
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || rec.Code != http.StatusUnprocessableEntity || eb.Kind != "non_finite" || !strings.Contains(eb.Error, elem) {
			t.Errorf("GET %s: %d %s, want 422 non_finite naming %s", name, rec.Code, rec.Body, elem)
		}
	}
	if rec := serve(t, srv, "GET", "/sessions/"+id+"/workspace/z", nil); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"re":[2,3]`) {
		t.Errorf("GET z after the refusals: %d %s", rec.Code, rec.Body)
	}

	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, math.NaN())
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || rec.Code != http.StatusInternalServerError || eb.Error == "" {
		t.Errorf("writeJSON(NaN): %d %q, want a 500 with an errorBody", rec.Code, rec.Body)
	}
}

// pooledCaps empties the body pool and returns the largest capacity it
// held. It takes more buffers than any test leaves there, since a kept
// buffer can have no capacity (a body refused for its declared length
// is never read).
func pooledCaps() int {
	largest := 0
	for range 1000 {
		largest = max(largest, buffers.Get().Cap())
	}
	return largest
}

// TestBodyBuffersAreBounded: a declared length sizes a body's buffer up
// to maxPooledBuffer and no further, so a PUT that declares 64 MiB and
// sends 10 bytes costs about that much; and a buffer that grew past
// maxPooledBuffer does not go back to the pool.
func TestBodyBuffersAreBounded(t *testing.T) {
	srv, id := oneSession(t)
	path := "/sessions/" + id + "/workspace/w"

	pooledCaps()
	req := httptest.NewRequest("PUT", path, strings.NewReader(`{"rows":1,`))
	req.ContentLength = maxWorkspaceBytes
	rec := httptest.NewRecorder()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	srv.Handler().ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("10 bytes declared as 64 MiB: %d %s, want 400", rec.Code, rec.Body)
	}
	// Twice the buffer: a race build's bytes.Buffer growth copies once
	// more. Sizing from the declared length would be 64 MiB.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 2*maxPooledBuffer+64<<10 {
		t.Errorf("10 bytes declared as 64 MiB allocated %d bytes, want at most about %d", alloc, maxPooledBuffer)
	}

	big := []byte(`{"rows":1,"cols":2,"re":[1,2]` + strings.Repeat(" ", 2<<20) + `}`)
	for _, declared := range []bool{true, false} {
		pooledCaps()
		req := httptest.NewRequest("PUT", path, bytes.NewReader(big))
		if !declared {
			req.ContentLength = -1
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusNoContent {
			t.Fatalf("2 MiB PUT (declared %v): %d %s", declared, rec.Code, rec.Body)
		}
		if c := pooledCaps(); c > maxPooledBuffer {
			t.Errorf("2 MiB PUT (declared %v): the pool kept a buffer of %d bytes", declared, c)
		}
	}
}

// TestConcurrentWorkspaceRoundTrips: sessions PUT and GET their own
// values at once through the shared buffer pool, and each reads back
// its own bits.
func TestConcurrentWorkspaceRoundTrips(t *testing.T) {
	srv, _ := oneSession(t)
	const workers = 6
	var wg sync.WaitGroup
	for w := range workers {
		rec := serve(t, srv, "POST", "/sessions", nil)
		var v struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			path := "/sessions/" + v.ID + "/workspace/a"
			for k := range 20 {
				re := make([]float64, 50+w*37+k)
				for i := range re {
					re[i] = float64(w) + float64(i)/float64(k+3)
				}
				body, _ := json.Marshal(refValue{Rows: 1, Cols: len(re), Kind: "double", Re: re})
				put := httptest.NewRecorder()
				srv.Handler().ServeHTTP(put, httptest.NewRequest("PUT", path, bytes.NewReader(body)))
				get := httptest.NewRecorder()
				srv.Handler().ServeHTTP(get, httptest.NewRequest("GET", path, nil))
				var got refValue
				if err := json.Unmarshal(get.Body.Bytes(), &got); put.Code != http.StatusNoContent || err != nil {
					t.Errorf("worker %d round %d: PUT %d, GET %d %v", w, k, put.Code, get.Code, err)
					return
				}
				if d := sameBits("re", got.Re, re); d != "" {
					t.Errorf("worker %d round %d: %s", w, k, d)
					return
				}
			}
		}()
	}
	wg.Wait()
}
