package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/telemetry"
)

var updateExposition = flag.Bool("update-exposition", false, "rewrite testdata/exposition.golden")

// expositionScenarios boots the three fixed deployments whose scrapes the
// exposition golden pins, drives each a little, and returns the base URL
// to scrape, keyed by scenario name.
func expositionScenarios(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}

	// A shared tiered daemon with persistence, hot enough to promote.
	shared := server.New(server.Options{
		Engine:   core.Options{Tier: core.TierJIT, Tiered: true},
		RepoPath: filepath.Join(t.TempDir(), "repo.bin"),
	})
	out["shared-tiered"] = serve(t, shared)
	id := nodeCreate(t, out["shared-tiered"])
	gwEval(t, out["shared-tiered"], id, "function y = fr(x)\ny = x + 1;\n")
	for i := 0; i < core.DefaultTierThreshold+5; i++ {
		gwEval(t, out["shared-tiered"], id, "r = fr(2);")
	}

	// A gateway over one node.
	_, gw := startGateway(t, startNodes(t, "gw-node"))
	out["gateway"] = gw
	gid, _ := gwCreate(t, gw)
	gwEval(t, gw, gid, "function y = add1(x)\ny = x + 1;\n")
	gwEval(t, gw, gid, "r = add1(1);")

	// A node with a replicator pushing to one peer.
	fleet := startNodes(t, "repl-a", "repl-b")
	a, b := fleet[0], fleet[1]
	repl := attachReplicator(t, a, b)
	out["replicator"] = a.hs.URL
	rid := nodeCreate(t, a.hs.URL)
	gwEval(t, a.hs.URL, rid, "function y = add2(x)\ny = x + 2;\n")
	gwEval(t, a.hs.URL, rid, "y = add2(1)")
	waitReplicated(t, b, 1, 10*time.Second)
	waitPushed(t, repl)
	return out
}

func serve(t *testing.T, srv *server.Server) string {
	t.Helper()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Shutdown(context.Background())
	})
	return hs.URL
}

// attachReplicator wires a replicator from node a to node b and starts
// it.
func attachReplicator(t *testing.T, a, b gwTestNode) *Replicator {
	t.Helper()
	repl := NewReplicator(ReplicatorOptions{
		NodeID:   a.n.ID,
		Lib:      a.srv.Library(),
		Peers:    []Node{b.n},
		Interval: time.Hour,
		Client:   &http.Client{Timeout: 5 * time.Second},
	})
	repl.Start()
	t.Cleanup(repl.Close)
	return repl
}

// waitPushed waits until the replicator has recorded its deliveries, so
// a scrape reads settled counters.
func waitPushed(t *testing.T, repl *Replicator) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for repl.Stats().Pushed == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("replicator never pushed: %+v", repl.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// exposition masks a /metrics.prom payload to its shape: the HELP and
// TYPE lines, and each sample's name and label set without its value.
func exposition(t *testing.T, payload string) []string {
	t.Helper()
	if _, err := telemetry.ValidatePrometheus(payload); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, payload)
	}
	var lines []string
	for _, line := range strings.Split(payload, "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "#"):
			lines = append(lines, line)
		default:
			lines = append(lines, line[:strings.LastIndexByte(line, ' ')])
		}
	}
	sort.Strings(lines)
	return lines
}

// jsonKeys lists every key path of a JSON document, arrays collapsed to
// "[]", values dropped.
func jsonKeys(t *testing.T, raw []byte) []string {
	t.Helper()
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("bad /metrics JSON: %v", err)
	}
	seen := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				seen[prefix+"."+k] = true
				walk(prefix+"."+k, e)
			}
		case []any:
			for _, e := range v {
				walk(prefix+"[]", e)
			}
		}
	}
	walk("", v)
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestExpositionUnchanged pins the metric families every deployment
// exposes — names, kinds, help text, label sets — and the key set of
// its /metrics JSON against testdata/exposition.golden. Regenerate with
// -update-exposition only when a family is meant to change.
func TestExpositionUnchanged(t *testing.T) {
	urls := expositionScenarios(t)
	names := make([]string, 0, len(urls))
	for name := range urls {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		_, prom := gwDo(t, "GET", urls[name]+"/metrics.prom", nil)
		_, js := gwDo(t, "GET", urls[name]+"/metrics", nil)
		b.WriteString("== " + name + " /metrics.prom\n")
		for _, l := range exposition(t, string(prom)) {
			b.WriteString(l + "\n")
		}
		b.WriteString("== " + name + " /metrics\n")
		for _, k := range jsonKeys(t, js) {
			b.WriteString(k + "\n")
		}
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *updateExposition {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("exposition differs from %s at line %d:\n got  %q\n want %q", golden, i+1, g, w)
			}
		}
	}
}

// settledScrape reads /metrics, /metrics.prom, /metrics again, until the
// two JSON reads agree: the exposition between them then saw the same
// counters as the JSON view.
func settledScrape(t *testing.T, base string) (js []byte, samples map[string]float64) {
	t.Helper()
	for try := 0; try < 50; try++ {
		_, before := gwDo(t, "GET", base+"/metrics", nil)
		_, prom := gwDo(t, "GET", base+"/metrics.prom", nil)
		_, after := gwDo(t, "GET", base+"/metrics", nil)
		if !bytes.Equal(before, after) {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		if _, err := telemetry.ValidatePrometheus(string(prom)); err != nil {
			t.Fatalf("invalid exposition: %v\n%s", err, prom)
		}
		samples = map[string]float64{}
		for _, line := range strings.Split(string(prom), "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			cut := strings.LastIndexByte(line, ' ')
			v, err := strconv.ParseFloat(line[cut+1:], 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			samples[line[:cut]] = v
		}
		return after, samples
	}
	t.Fatalf("%s/metrics never settled", base)
	return nil, nil
}

// checkViews walks a decoded /metrics view and checks every metric-tagged
// field against the scraped samples, recording each sample it matched.
// A number or bool with neither a metric tag nor metric:"-" fails: it
// would be in one view and not the other. Slices and maps are not
// exposed and not walked.
func checkViews(t *testing.T, path string, v reflect.Value, samples map[string]float64, matched map[string]bool) {
	t.Helper()
	for v.Kind() == reflect.Pointer || v.Kind() == reflect.Interface {
		if v.IsNil() {
			return
		}
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return
	}
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		tag := f.Tag.Get("metric")
		switch {
		case tag == "-":
			continue
		case tag == "":
			switch fv.Kind() {
			case reflect.Struct, reflect.Pointer, reflect.Interface:
				checkViews(t, path+"."+f.Name, fv, samples, matched)
			case reflect.Slice, reflect.Map, reflect.String:
			default:
				t.Errorf("%s.%s (%s) has neither a metric tag nor metric:\"-\"", path, f.Name, fv.Kind())
			}
			continue
		}
		parts := strings.Split(tag, ",")
		var labels []string
		gate := false
		for _, p := range parts[1:] {
			if k, val, ok := strings.Cut(p, "="); ok {
				labels = append(labels, k+`="`+val+`"`)
			}
			gate = gate || p == "gate"
		}
		key := parts[0]
		if len(labels) > 0 {
			key += "{" + strings.Join(labels, ",") + "}"
		}
		var want float64
		switch fv.Kind() {
		case reflect.Bool:
			if fv.Bool() {
				want = 1
			}
		case reflect.Int, reflect.Int64:
			want = float64(fv.Int())
		default:
			want = float64(fv.Uint())
		}
		got, ok := samples[key]
		switch {
		case !ok:
			t.Errorf("%s.%s: no sample %s", path, f.Name, key)
		case got != want:
			t.Errorf("%s.%s: %s = %v in /metrics.prom, %v in /metrics", path, f.Name, key, got, want)
		}
		matched[key] = true
		if gate && want == 0 {
			return
		}
	}
}

// TestMetricsViewsAgree is what makes "the JSON and Prometheus endpoints
// can never disagree" true: in every exposition scenario each
// metric-tagged field of the /metrics view has a /metrics.prom sample of
// the same value. The fleet families get the same check — every
// majic_gate_* sample is a GatewayStats field (bar the ready-node count)
// and every majic_cluster_* sample an IngestStats one.
func TestMetricsViewsAgree(t *testing.T) {
	urls := expositionScenarios(t)
	for _, name := range []string{"shared-tiered", "gateway", "replicator"} {
		js, samples := settledScrape(t, urls[name])
		var view any
		if name == "gateway" {
			var fm FleetMetrics
			if err := json.Unmarshal(js, &fm); err != nil {
				t.Fatal(err)
			}
			view = fm
		} else {
			var ms server.MetricsSnapshot
			if err := json.Unmarshal(js, &ms); err != nil {
				t.Fatal(err)
			}
			view = ms
		}
		matched := map[string]bool{}
		checkViews(t, name, reflect.ValueOf(view), samples, matched)

		fleet := 0
		for key, v := range samples {
			if !strings.HasPrefix(key, "majic_gate_") && !strings.HasPrefix(key, "majic_cluster_") {
				continue
			}
			fleet++
			switch {
			case key == "majic_gate_nodes_ready":
				if v != 1 {
					t.Errorf("%s: majic_gate_nodes_ready = %v, want 1", name, v)
				}
			case !matched[key]:
				t.Errorf("%s: %s matches no field of the /metrics view", name, key)
			}
		}
		if want := map[string]int{"gateway": 10, "replicator": 3}[name]; name == "gateway" || name == "replicator" {
			if fleet != want {
				t.Errorf("%s: %d majic_gate_*/majic_cluster_* samples, want %d", name, fleet, want)
			}
		}
	}
}
