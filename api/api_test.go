package api

import (
	"bytes"
	"strings"
	"testing"
)

func validRequest() ScanRequest {
	return ScanRequest{
		Schema:  SchemaVersion,
		Dataset: DatasetRef{Path: "testdata/rep.ms", Format: "ms"},
		Params:  ScanParams{GridSize: 12, Backend: "cpu", Scheduler: "auto"},
		Label:   "smoke",
	}
}

func validReport() ScanReport {
	return ScanReport{
		Schema:  SchemaVersion,
		Backend: "cpu",
		Results: []ResultRow{
			{Position: 10.5, Valid: true, Omega: 3.25, WinLeft: 1, WinRight: 20, Scores: 42},
			{Position: 99, Valid: false},
		},
		OmegaScores: 42, R2Computed: 7, R2Reused: 3,
		Timing: &Timing{LDSeconds: 0.1, OmegaSeconds: 0.2, WallSeconds: 0.5},
	}
}

// Encode∘Decode∘Encode must be byte-identical for every wire type.
func TestCanonicalRoundTrip(t *testing.T) {
	check := func(name string, enc []byte, err error, reenc func() ([]byte, error)) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if !bytes.HasSuffix(enc, []byte("\n")) {
			t.Errorf("%s: canonical form missing trailing newline", name)
		}
		enc2, err := reenc()
		if err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Errorf("%s: Encode∘Decode∘Encode not byte-identical:\n%s\nvs\n%s", name, enc, enc2)
		}
	}

	req := validRequest()
	b, err := req.Encode()
	check("request", b, err, func() ([]byte, error) {
		d, err := DecodeScanRequest(b)
		if err != nil {
			return nil, err
		}
		return d.Encode()
	})

	rep := validReport()
	b, err = rep.Encode()
	check("report", b, err, func() ([]byte, error) {
		d, err := DecodeScanReport(b)
		if err != nil {
			return nil, err
		}
		return d.Encode()
	})

	st := JobStatus{Schema: SchemaVersion, ID: "job-000001", State: StateRunning,
		Priority: PriorityNormal, Tenant: "anonymous", SubmittedAt: "2026-08-08T00:00:00Z",
		Progress: &ProgressInfo{GridDone: 3, GridTotal: 12, ElapsedSeconds: 0.01}}
	b, err = st.Encode()
	check("job status", b, err, func() ([]byte, error) {
		d, err := DecodeJobStatus(b)
		if err != nil {
			return nil, err
		}
		return d.Encode()
	})

	pl := Plan{Schema: SchemaVersion, Backend: "gpu-sim", ModelVersion: 1, CalibrationID: "default-gpu",
		SNPs: 1000, Samples: 20, Grid: 100, Replicates: 10, Devices: 2,
		ReplicateSeconds: 1.5, LDSeconds: 1, OmegaSeconds: 0.5,
		ReplicatesPerDevice: 5, MakespanSeconds: 7.5, AggregateOmegaPerSec: 123}
	b, err = pl.Encode()
	check("plan", b, err, func() ([]byte, error) {
		d, err := DecodePlan(b)
		if err != nil {
			return nil, err
		}
		return d.Encode()
	})
}

// Canonical strips the nondeterministic timing block and nothing else.
func TestCanonicalStripsTiming(t *testing.T) {
	rep := validReport()
	canon, err := rep.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(canon, []byte("timing")) {
		t.Errorf("canonical form still mentions timing:\n%s", canon)
	}
	if rep.Timing == nil {
		t.Error("Canonical mutated its receiver's Timing")
	}
	rep2 := validReport()
	rep2.Timing = &Timing{LDSeconds: 9, OmegaSeconds: 9, WallSeconds: 99}
	canon2, err := rep2.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canon, canon2) {
		t.Error("reports differing only in timing have different canonical forms")
	}
}

func TestDecodeStrictness(t *testing.T) {
	good, err := validRequest().Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, data string
	}{
		{"unknown field", strings.Replace(string(good), `"schema": 1`, `"schema": 1, "surprise": true`, 1)},
		{"trailing data", string(good) + "{}"},
		{"wrong schema", strings.Replace(string(good), `"schema": 1`, `"schema": 99`, 1)},
		{"not json", "position\tomega\n"},
	}
	for _, tc := range cases {
		if _, err := DecodeScanRequest([]byte(tc.data)); err == nil {
			t.Errorf("%s: DecodeScanRequest accepted bad input", tc.name)
		}
		if _, err := DecodeScanReport([]byte(tc.data)); err == nil && tc.name != "unknown field" {
			t.Errorf("%s: DecodeScanReport accepted bad input", tc.name)
		}
	}
}

func TestRequestValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*ScanRequest)
	}{
		{"no dataset", func(r *ScanRequest) { r.Dataset = DatasetRef{} }},
		{"two dataset kinds", func(r *ScanRequest) { r.Dataset.BitmatBase64 = "AAAA" }},
		{"short hash", func(r *ScanRequest) { r.Dataset = DatasetRef{ContentHash: "abcd"} }},
		{"non-hex hash", func(r *ScanRequest) {
			r.Dataset = DatasetRef{ContentHash: strings.Repeat("zz", 32)}
		}},
		{"bad priority", func(r *ScanRequest) { r.Priority = "urgent" }},
		{"negative deadline", func(r *ScanRequest) { r.DeadlineSeconds = -1 }},
		{"bad schema", func(r *ScanRequest) { r.Schema = 0 }},
	}
	for _, tc := range cases {
		r := validRequest()
		tc.mut(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
		}
	}
	ok := validRequest()
	ok.Dataset = DatasetRef{ContentHash: strings.Repeat("ab", 32)}
	ok.Priority = PriorityHigh
	if err := ok.Validate(); err != nil {
		t.Errorf("valid hash request rejected: %v", err)
	}
}

func validBatchReport() BatchReport {
	rep := validReport()
	rep.Timing = nil
	return BatchReport{
		Schema:    SchemaVersion,
		Backend:   "cpu",
		BatchHash: strings.Repeat("cd", 32),
		Replicates: []BatchItem{
			{Index: 0, Report: &rep},
			{Index: 1, Skipped: true},
			{Index: 2, Error: &Error{Code: CodeInput, Message: "empty"}},
		},
		Scanned: 1, Skipped: 1, Failed: 1,
		OmegaScores: 42, R2Computed: 7, R2Reused: 3,
		Timing: &Timing{WallSeconds: 1.5},
	}
}

func TestBatchReportRoundTrip(t *testing.T) {
	b, err := validBatchReport().Encode()
	if err != nil {
		t.Fatal(err)
	}
	d, err := DecodeBatchReport(b)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Errorf("batch report Encode∘Decode∘Encode not byte-identical:\n%s\nvs\n%s", b, b2)
	}
	if _, err := DecodeBatchReport(append(b, '{', '}')); err == nil {
		t.Error("trailing data accepted")
	}
}

// Canonical strips the batch timing and every replicate timing without
// mutating the receiver.
func TestBatchReportCanonical(t *testing.T) {
	br := validBatchReport()
	br.Replicates[0].Report.Timing = &Timing{WallSeconds: 9}
	canon, err := br.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(canon, []byte("timing")) {
		t.Errorf("canonical batch report still mentions timing:\n%s", canon)
	}
	if br.Timing == nil || br.Replicates[0].Report.Timing == nil {
		t.Error("Canonical mutated its receiver")
	}
}

func TestBatchReportValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*BatchReport)
	}{
		{"bad schema", func(b *BatchReport) { b.Schema = 0 }},
		{"short batch hash", func(b *BatchReport) { b.BatchHash = "abcd" }},
		{"no outcome", func(b *BatchReport) { b.Replicates[1] = BatchItem{Index: 1} }},
		{"two outcomes", func(b *BatchReport) { b.Replicates[1].Error = &Error{Code: CodeInput, Message: "x"} }},
		{"bad replicate report", func(b *BatchReport) { b.Replicates[0].Report.Schema = 0 }},
	}
	for _, tc := range cases {
		b := validBatchReport()
		tc.mut(&b)
		if err := b.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
		}
	}
}

func TestJobResult(t *testing.T) {
	rep := validReport()
	scan := JobResult{Schema: SchemaVersion, Kind: KindScan, Scan: &rep}
	b, err := scan.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte("timing")) {
		t.Errorf("canonical job result still mentions timing:\n%s", b)
	}
	d, err := DecodeJobResult(b)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Error("job result Canonical∘Decode∘Encode not byte-identical")
	}

	batch := validBatchReport()
	bad := []JobResult{
		{Schema: SchemaVersion, Kind: "martian", Scan: &rep},
		{Schema: SchemaVersion, Kind: KindScan},
		{Schema: SchemaVersion, Kind: KindScan, Scan: &rep, Batch: &batch},
		{Schema: SchemaVersion, Kind: KindBatch, Scan: &rep},
		{Schema: SchemaVersion, Kind: KindStream, Batch: &batch},
		{Schema: 0, Kind: KindScan, Scan: &rep},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad[%d]: Validate accepted kind=%q scan=%v batch=%v", i, r.Kind, r.Scan != nil, r.Batch != nil)
		}
	}
	good := JobResult{Schema: SchemaVersion, Kind: KindBatch, Batch: &batch}
	if err := good.Validate(); err != nil {
		t.Errorf("batch job result rejected: %v", err)
	}
	stream := JobResult{Schema: SchemaVersion, Kind: KindStream, Scan: &rep}
	if err := stream.Validate(); err != nil {
		t.Errorf("stream job result rejected: %v", err)
	}
}

func TestJobResultWithLabel(t *testing.T) {
	rep := validReport()
	rep.Label = ""
	r := JobResult{Schema: SchemaVersion, Kind: KindScan, Scan: &rep}
	labeled := r.WithLabel("night-run")
	if labeled.Scan.Label != "night-run" {
		t.Errorf("label not applied: %q", labeled.Scan.Label)
	}
	if rep.Label != "" {
		t.Error("WithLabel mutated the stored payload")
	}
}

func TestRequestKindValidation(t *testing.T) {
	r := validRequest()
	r.Kind = "martian"
	if err := r.Validate(); err == nil {
		t.Error("unknown kind accepted")
	}

	r = validRequest()
	r.Datasets = []DatasetRef{{ContentHash: strings.Repeat("ab", 32)}}
	r.Dataset = DatasetRef{}
	if err := r.Validate(); err == nil {
		t.Error("datasets list without batch kind accepted")
	}
	r.Kind = KindBatch
	if err := r.Validate(); err != nil {
		t.Errorf("batch datasets request rejected: %v", err)
	}
	r.Dataset = DatasetRef{Path: "x.ms", Format: "ms"}
	if err := r.Validate(); err == nil {
		t.Error("dataset and datasets together accepted")
	}
	r.Dataset = DatasetRef{}
	r.Datasets = append(r.Datasets, DatasetRef{ContentHash: "zz"})
	if err := r.Validate(); err == nil {
		t.Error("bad datasets element accepted")
	}

	for _, kind := range []string{"", KindScan, KindBatch, KindStream} {
		r := validRequest()
		r.Kind = kind
		if err := r.Validate(); err != nil {
			t.Errorf("kind %q rejected: %v", kind, err)
		}
	}
}

func TestErrorMappings(t *testing.T) {
	exits := map[string]int{
		"": 0, CodeFailure: 1, CodeUsage: 2, CodeInput: 3,
		CodeConfig: 4, CodeTimeout: 5, CodeCapacity: 1, CodeNotFound: 1,
		CodeUnauthorized: 1, CodeUnavailable: 1,
		"martian": 1,
	}
	for code, want := range exits {
		if got := ExitCode(code); got != want {
			t.Errorf("ExitCode(%q) = %d, want %d", code, got, want)
		}
	}
	statuses := map[string]int{
		CodeFailure: 500, CodeUsage: 400, CodeInput: 400, CodeConfig: 400,
		CodeTimeout: 504, CodeCapacity: 429, CodeNotFound: 404,
		CodeUnauthorized: 401, CodeUnavailable: 503, "martian": 500,
	}
	for code, want := range statuses {
		e := &Error{Code: code, Message: "m"}
		if got := e.HTTPStatus(); got != want {
			t.Errorf("HTTPStatus(%q) = %d, want %d", code, got, want)
		}
	}
	e := &Error{Code: CodeInput, Message: "no SNPs"}
	if e.Error() != "input: no SNPs" {
		t.Errorf("Error() = %q", e.Error())
	}
}

func TestJobStatusValidation(t *testing.T) {
	s := JobStatus{Schema: SchemaVersion, ID: "j", State: "paused", Priority: PriorityLow, Tenant: "t", SubmittedAt: "x"}
	if err := s.Validate(); err == nil {
		t.Error("unknown state accepted")
	}
}

// TestLegacyFieldsDecode: documents written before the scan engine
// replaced the CPU schedulers still pass strict decode — a request
// naming any retired scheduler, and a report carrying the
// snapshot_seconds timing nothing emits any more.
func TestLegacyFieldsDecode(t *testing.T) {
	for _, sched := range []string{"auto", "snapshot", "sharded"} {
		req := `{"schema": 1, "dataset": {"path": "rep.ms", "format": "ms"}, "params": {"grid_size": 12, "threads": 2, "scheduler": "` + sched + `"}}`
		got, err := DecodeScanRequest([]byte(req))
		if err != nil {
			t.Fatalf("scheduler %q: %v", sched, err)
		}
		if err := CheckScheduler(got.Params.Scheduler); err != nil {
			t.Errorf("scheduler %q: %v", sched, err)
		}
	}
	rep := `{"schema": 1, "backend": "cpu", "results": [], "omega_scores": 0, "r2_computed": 0, "r2_reused": 0,
		"timing": {"ld_seconds": 0.1, "omega_seconds": 0.2, "snapshot_seconds": 0.01, "wall_seconds": 0.4}}`
	if _, err := DecodeScanReport([]byte(rep)); err != nil {
		t.Errorf("report with snapshot_seconds: %v", err)
	}
}
