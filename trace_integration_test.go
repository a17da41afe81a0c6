package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestTraceAttributionReconciles is the timeline's accounting gate: on a
// traced GL run, the per-episode attribution table must reconcile exactly
// with the barrier.gl.latency histogram (same sample count, same cycle
// sum), every episode's phases must tile [Start, End] with no gap or
// overlap, the Chrome export must validate, and — the observation-only
// contract — the traced run's fingerprint must equal the untraced run's.
func TestTraceAttributionReconciles(t *testing.T) {
	const cores = 16
	w := workload.TestSynthetic()

	plain, err := runFresh(context.Background(), cores, w, GL)
	if err != nil {
		t.Fatalf("untraced run: %v", err)
	}

	sys, err := sim.New(config.Default(cores))
	if err != nil {
		t.Fatal(err)
	}
	tl := sys.AttachTimeline(1 << 20)
	rep, err := workload.Run(context.Background(), sys, w, GL, cores, defaultCycleBudget)
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	if got, want := rep.Fingerprint(), plain.Fingerprint(); got != want {
		t.Fatalf("tracing changed behavior: fingerprint %s != untraced %s", got, want)
	}
	if len(rep.Episodes) == 0 {
		t.Fatal("traced GL run produced no episode attributions")
	}

	var latSum uint64
	for i, ep := range rep.Episodes {
		phases := ep.ArriveWait + ep.Retry + ep.Gather + ep.Release + ep.Fallback
		if phases != ep.End-ep.Start {
			t.Errorf("episode %d: phases sum %d != span %d", i, phases, ep.End-ep.Start)
		}
		if lat := ep.Retry + ep.Gather + ep.Release + ep.Fallback; lat != ep.Latency {
			t.Errorf("episode %d: post-arrival phases %d != latency %d", i, lat, ep.Latency)
		}
		if ep.ViaFallback {
			t.Errorf("episode %d: fault-free run attributed via_fallback", i)
		}
		latSum += ep.Latency
	}
	h, ok := rep.Metrics.Histograms["barrier.gl.latency"]
	if !ok {
		t.Fatal("no barrier.gl.latency histogram")
	}
	if uint64(len(rep.Episodes)) != h.Count {
		t.Errorf("attribution count %d != histogram count %d", len(rep.Episodes), h.Count)
	}
	if latSum != h.Sum {
		t.Errorf("attribution latency sum %d != histogram sum %d", latSum, h.Sum)
	}

	// The same reconciliation must hold through the Report.JSON export.
	raw, err := rep.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var doc struct {
		GLEpisodes []struct {
			Latency uint64 `json:"latency"`
		} `json:"gl_episodes"`
		Metrics struct {
			Histograms map[string]struct {
				Count uint64 `json:"count"`
				Sum   uint64 `json:"sum"`
			} `json:"histograms"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("unmarshal report: %v", err)
	}
	var jsonSum uint64
	for _, ep := range doc.GLEpisodes {
		jsonSum += ep.Latency
	}
	jh := doc.Metrics.Histograms["barrier.gl.latency"]
	if jsonSum != jh.Sum || uint64(len(doc.GLEpisodes)) != jh.Count {
		t.Errorf("JSON gl_episodes (n=%d, sum=%d) do not reconcile with histogram (count=%d, sum=%d)",
			len(doc.GLEpisodes), jsonSum, jh.Count, jh.Sum)
	}

	// The exported Chrome trace validates and carries one episode span per
	// attribution row (the ring was sized to drop nothing).
	if tl.Dropped() != 0 {
		t.Fatalf("timeline dropped %d events; size the test capacity up", tl.Dropped())
	}
	var buf bytes.Buffer
	if err := tl.WriteChrome(&buf, nil); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if err := trace.ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("ValidateChrome: %v", err)
	}
	var cf struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &cf); err != nil {
		t.Fatalf("unmarshal chrome: %v", err)
	}
	episodeSpans := 0
	for _, ev := range cf.TraceEvents {
		if ev.Name == "barrier.episode" && ev.Phase == "X" {
			episodeSpans++
		}
	}
	if episodeSpans != len(rep.Episodes) {
		t.Errorf("chrome trace has %d barrier.episode spans, attribution table %d rows", episodeSpans, len(rep.Episodes))
	}
}

// TestReportProvenanceAndConfigEcho checks the report's self-description:
// build info from the running binary and the resolved Config echoed in
// snake_case.
func TestReportProvenanceAndConfigEcho(t *testing.T) {
	const cores = 8
	rep, err := runFresh(context.Background(), cores, workload.TestSynthetic(), GL)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Provenance struct {
			GoVersion string `json:"go_version"`
			Module    string `json:"module"`
		} `json:"provenance"`
		Config *struct {
			Cores      int `json:"cores"`
			MeshCols   int `json:"mesh_cols"`
			GLContexts int `json:"gl_contexts"`
		} `json:"config"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Provenance.GoVersion == "" {
		t.Error("provenance.go_version is empty")
	}
	if doc.Provenance.Module == "" {
		t.Error("provenance.module is empty")
	}
	if doc.Config == nil {
		t.Fatal("config echo missing from report JSON")
	}
	if doc.Config.Cores != cores {
		t.Errorf("config.cores = %d, want %d", doc.Config.Cores, cores)
	}
	if doc.Config.MeshCols == 0 || doc.Config.GLContexts == 0 {
		t.Errorf("config echo incomplete: %+v", doc.Config)
	}
}

// TestHangDumpTimelineTail wedges the unguarded protocol with the corpus's
// single-cycle drop plan on a traced system and checks the watchdog
// post-mortem carries the timeline tail: the typed view of what was in
// flight when the run stopped making progress.
func TestHangDumpTimelineTail(t *testing.T) {
	plan, err := fault.ParsePlan("seed=305887,recovery.off,recovery.timeout=2048,recovery.retries=2,recovery.penalty=256,recovery.sticky=4,@256:gl.drop:2")
	if err != nil {
		t.Fatal(err)
	}
	out := chaos.RunPlan(chaos.RunConfig{TraceCapacity: 1 << 14}, plan)
	if out.RunErr == "" {
		t.Fatal("the single-cycle wedge plan completed; expected a watchdog abort")
	}
	if out.Timeline == nil || out.Timeline.Len() == 0 {
		t.Fatal("chaos run with TraceCapacity produced no timeline")
	}
	if out.Report == nil || out.Report.Hang == nil {
		t.Fatal("wedged run carries no hang dump")
	}
	if len(out.Report.Hang.TimelineTail) == 0 {
		t.Fatal("hang dump has no timeline tail")
	}
	dump := out.Report.Hang.String()
	if !strings.Contains(dump, "timeline events:") {
		t.Errorf("hang dump does not render the timeline tail section:\n%s", dump)
	}
	// The tail must show the wedged barrier context's protocol activity —
	// arrivals that never gathered.
	if !strings.Contains(dump, "barrier.arrive") && !strings.Contains(dump, "gl.pulse") {
		t.Errorf("timeline tail shows no barrier/G-line activity:\n%s",
			strings.Join(out.Report.Hang.TimelineTail, "\n"))
	}
}
