package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"testing"

	"omegago"
	"omegago/api"
)

func bitmatBase64(t *testing.T, ds *omegago.Dataset) string {
	t.Helper()
	var buf bytes.Buffer
	if err := omegago.WriteBitmat(&buf, ds); err != nil {
		t.Fatal(err)
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes())
}

// TestBatchJobMatchesLibrary: a batch job over an explicit datasets
// list (with a skipped placeholder) produces a wire BatchReport
// byte-identical, in canonical form, to a direct ScanBatch over the
// same replicates.
func TestBatchJobMatchesLibrary(t *testing.T) {
	ds1 := testDataset(t, 51)
	ds2 := testDataset(t, 53)
	_, srv := newTestService(t, Config{Workers: 2})

	req := api.ScanRequest{
		Schema: api.SchemaVersion,
		Kind:   api.KindBatch,
		Datasets: []api.DatasetRef{
			{BitmatBase64: bitmatBase64(t, ds1)},
			{ContentHash: api.SkippedDatasetHash},
			{BitmatBase64: bitmatBase64(t, ds2)},
		},
		Params: api.ScanParams{GridSize: 12, MaxWindow: 50000},
		Label:  "batch-run",
	}
	resp, body := postScan(t, srv, req, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	st, err := api.DecodeJobStatus(body)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != api.KindBatch {
		t.Errorf("status kind = %q, want batch", st.Kind)
	}
	final := waitDone(t, srv, st.ID)
	if final.State != api.StateDone {
		t.Fatalf("batch job = %+v (error %+v)", final, final.Error)
	}

	_, body = get(t, srv, "/v1/jobs/"+st.ID+"/result")
	got, err := api.DecodeBatchReport(body)
	if err != nil {
		t.Fatalf("decoding batch result: %v (%s)", err, body)
	}
	if got.Label != "batch-run" || got.Scanned != 2 || got.Skipped != 1 || got.Failed != 0 {
		t.Errorf("batch result header = %+v", got)
	}
	gotCanon, err := got.Canonical()
	if err != nil {
		t.Fatal(err)
	}

	batch := []*omegago.Dataset{ds1, nil, ds2}
	rep, err := omegago.ScanBatch(context.Background(), batch, omegago.Config{GridSize: 12, MaxWindow: 50000})
	if err != nil {
		t.Fatal(err)
	}
	batchHash, err := omegago.BatchContentHash(batch)
	if err != nil {
		t.Fatal(err)
	}
	h1, _ := omegago.DatasetContentHash(ds1)
	h2, _ := omegago.DatasetContentHash(ds2)
	want := rep.APIBatchReport("batch-run", "cpu", hex.EncodeToString(batchHash[:]),
		[]string{hex.EncodeToString(h1[:]), api.SkippedDatasetHash, hex.EncodeToString(h2[:])})
	wantCanon, err := want.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCanon, wantCanon) {
		t.Errorf("HTTP and library canonical batch reports differ:\n%s\nvs\n%s", gotCanon, wantCanon)
	}
}

// TestStreamJobMatchesLibrary: a stream job's report is byte-identical,
// in canonical form, to a direct ScanStream over an in-memory source of
// the same dataset — including the stream_* counters.
func TestStreamJobMatchesLibrary(t *testing.T) {
	ds := testDataset(t, 59)
	_, srv := newTestService(t, Config{Workers: 1})

	req := api.ScanRequest{
		Schema:  api.SchemaVersion,
		Kind:    api.KindStream,
		Dataset: api.DatasetRef{BitmatBase64: bitmatBase64(t, ds)},
		Params:  api.ScanParams{GridSize: 10, MaxWindow: 50000, ChunkSNPs: 32},
	}
	resp, body := postScan(t, srv, req, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	st, err := api.DecodeJobStatus(body)
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, srv, st.ID)
	if final.State != api.StateDone {
		t.Fatalf("stream job = %+v (error %+v)", final, final.Error)
	}

	_, body = get(t, srv, "/v1/jobs/"+st.ID+"/result")
	got, err := api.DecodeScanReport(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.StreamChunks == 0 {
		t.Error("stream job report has no stream_chunks")
	}
	gotCanon, err := got.Canonical()
	if err != nil {
		t.Fatal(err)
	}

	src, err := omegago.NewDatasetSource(ds)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	rep, err := omegago.ScanStream(src, omegago.Config{GridSize: 10, MaxWindow: 50000, ChunkSNPs: 32})
	if err != nil {
		t.Fatal(err)
	}
	hash, _ := omegago.DatasetContentHash(ds)
	wantCanon, err := rep.APIReport("", hex.EncodeToString(hash[:])).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCanon, wantCanon) {
		t.Errorf("HTTP and library canonical stream reports differ:\n%s\nvs\n%s", gotCanon, wantCanon)
	}
}

// TestKindValidation: structurally valid but unsupported kind
// combinations are rejected synchronously with the right error class.
func TestKindValidation(t *testing.T) {
	ds := testDataset(t, 61)
	_, srv := newTestService(t, Config{Workers: 1})
	upload := bitmatBase64(t, ds)

	check := func(name string, status int, code string, req api.ScanRequest) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Post(srv.URL+"/v1/scan", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]byte, 1<<14)
		n, _ := resp.Body.Read(out)
		resp.Body.Close()
		if resp.StatusCode != status {
			t.Errorf("%s: HTTP %d, want %d (%s)", name, resp.StatusCode, status, out[:n])
			return
		}
		var e api.Error
		if err := json.Unmarshal(out[:n], &e); err != nil || e.Code != code {
			t.Errorf("%s: envelope %s, want code %s", name, out[:n], code)
		}
	}

	check("unknown kind", http.StatusBadRequest, api.CodeUsage, api.ScanRequest{
		Schema: api.SchemaVersion, Kind: "mystery",
		Dataset: api.DatasetRef{BitmatBase64: upload},
	})
	check("datasets without batch kind", http.StatusBadRequest, api.CodeUsage, api.ScanRequest{
		Schema:   api.SchemaVersion,
		Datasets: []api.DatasetRef{{BitmatBase64: upload}},
	})
	check("stream on gpu backend", http.StatusBadRequest, api.CodeConfig, api.ScanRequest{
		Schema: api.SchemaVersion, Kind: api.KindStream,
		Dataset: api.DatasetRef{BitmatBase64: upload},
		Params:  api.ScanParams{Backend: "gpu-sim"},
	})
	check("overflowing bitmat header", http.StatusBadRequest, api.CodeInput, api.ScanRequest{
		Schema:  api.SchemaVersion,
		Dataset: api.DatasetRef{BitmatBase64: base64.StdEncoding.EncodeToString(overflowBitmat())},
	})
}

// overflowBitmat is a 104-byte bitmat upload with a genuine content
// hash whose header claims 2^61 SNPs over 0 samples — counts that wrap
// the reader's layout arithmetic into a self-consistent header.
func overflowBitmat() []byte {
	b := make([]byte, 104)
	copy(b, "OMGBMAT1")
	binary.LittleEndian.PutUint32(b[8:12], 104)
	binary.LittleEndian.PutUint64(b[16:24], 1<<61)
	binary.LittleEndian.PutUint64(b[48:56], 104)
	sum := sha256.Sum256(b[:72])
	copy(b[72:], sum[:])
	return b
}

// TestBatchSingleRefIsOneReplicateBatch: a batch job with a plain
// single dataset reference runs as a one-replicate batch.
func TestBatchSingleRefIsOneReplicateBatch(t *testing.T) {
	ds := testDataset(t, 67)
	_, srv := newTestService(t, Config{Workers: 1})
	req := api.ScanRequest{
		Schema:  api.SchemaVersion,
		Kind:    api.KindBatch,
		Dataset: api.DatasetRef{BitmatBase64: bitmatBase64(t, ds)},
		Params:  api.ScanParams{GridSize: 8},
	}
	_, body := postScan(t, srv, req, "")
	st, err := api.DecodeJobStatus(body)
	if err != nil {
		t.Fatalf("%v (%s)", err, body)
	}
	final := waitDone(t, srv, st.ID)
	if final.State != api.StateDone {
		t.Fatalf("batch job = %+v (error %+v)", final, final.Error)
	}
	_, body = get(t, srv, "/v1/jobs/"+st.ID+"/result")
	rep, err := api.DecodeBatchReport(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Replicates) != 1 || rep.Scanned != 1 {
		t.Errorf("single-ref batch = %+v", rep)
	}
}
