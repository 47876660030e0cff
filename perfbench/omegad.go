package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"omegago"
	"omegago/api"
	"omegago/internal/obs"
	"omegago/internal/service"
	"omegago/internal/service/store"
)

// omegad-mixed: an in-process omegad (service.New on a fresh FSStore)
// behind a loopback listener, driven closed-loop by two clients — the
// way omegad callers submit and wait for the result. The request
// sequence is generated from the seed; 40% of the requests hit results
// computed at setup, the rest are colds with never-seen params or fresh
// inline uploads, across the scan, batch and stream kinds. Each
// request's cache outcome is fixed by the sequence, not by completion
// order. The hit share sits below one half so op_p50_s falls inside the
// cold latencies rather than on the gap between hits and colds, where a
// median swings from run to run.

// clients is the closed-loop client count: one per CPU of the 2-vCPU
// reference host, and the connection cap.
const clients = 2

// dsRef is one dataset the workload knows: the dataset, its content
// hash, its bitmat bytes and a bitmat file for the library reference
// of stream jobs.
type dsRef struct {
	ds     *omegago.Dataset
	hash   string
	bitmat []byte
	path   string
}

// request is one pre-generated request of the sequence.
type request struct {
	body   []byte
	kind   string
	hit    bool // the outcome the sequence fixes
	key    int  // expectation index; requests for one cache key share it
	params api.ScanParams
	data   []*dsRef // one dataset (scan, stream) or the batch replicates
	upload bool     // carries an inline bitmat upload
}

type omegad struct {
	dir      string
	storeDir string
	svc      *service.Service
	srv      *http.Server
	served   chan struct{}
	base     string
	client   *http.Client
	hits     []*request // the setup-computed (dataset, params, kind) entries
	seq      []*request
	keys     int
}

// hitParams are the params of every hit entry; cold params never use
// this window, so a cold can never collide with a hit.
var hitParams = api.ScanParams{GridSize: 60, MaxWindow: 30000}

// baseSNPs is the SNP count of the base datasets.
const baseSNPs = 3000

func setupOmegad(seed int64, dir string, n int) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	ref := func(ds *omegago.Dataset) (*dsRef, error) {
		h, err := omegago.DatasetContentHash(ds)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := omegago.WriteBitmat(&buf, ds); err != nil {
			return nil, err
		}
		return &dsRef{ds: ds, hash: hex.EncodeToString(h[:]), bitmat: buf.Bytes()}, nil
	}
	// Three base datasets; batch replicates are thirds of the first, so
	// a batch costs about what a scan of one base dataset costs.
	var base, reps []*dsRef
	for i := 0; i < 3; i++ {
		ds, err := omegago.Simulate(omegago.SimConfig{
			SampleSize: 64, Replicates: 1, SegSites: baseSNPs, Seed: seed*10 + int64(i),
		}, 1e6)
		if err != nil {
			return nil, err
		}
		d, err := ref(ds)
		if err != nil {
			return nil, err
		}
		d.path = filepath.Join(dir, fmt.Sprintf("base%d.bitmat", i))
		if err := omegago.SaveBitmat(d.path, d.ds); err != nil {
			return nil, err
		}
		base = append(base, d)
	}
	for i := 0; i < 3; i++ {
		r, err := ref(base[0].ds.Slice(i*baseSNPs/3, (i+1)*baseSNPs/3))
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}

	o := &omegad{dir: dir, storeDir: filepath.Join(dir, "store")}
	fsStore, err := store.NewFS(o.storeDir, store.Options{})
	if err != nil {
		return nil, err
	}
	// One scan worker leaves the second CPU to HTTP, the store and the
	// clients: concurrent colds queue (the queue layer is measured) and
	// hits are not starved behind two scans.
	o.svc, err = service.New(service.Config{Workers: 1, Store: fsStore, Registry: obs.NewRegistry()})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		o.svc.Close()
		return nil, err
	}
	o.base = "http://" + ln.Addr().String()
	o.srv = &http.Server{Handler: o.svc.Handler()}
	o.served = make(chan struct{})
	go func() {
		defer close(o.served)
		_ = o.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	o.client = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients},
	}

	// The hit entries, computed now with inline uploads; the timed phase
	// names the same datasets by content hash.
	hitSpecs := []struct {
		kind string
		data []*dsRef
	}{
		{api.KindScan, base[:1]}, {api.KindScan, base[1:2]},
		{api.KindStream, base[2:3]}, {api.KindStream, base[:1]},
		{api.KindBatch, reps}, {api.KindBatch, reps[:2]},
	}
	for _, h := range hitSpecs {
		setupReq, err := o.newRequest(h.kind, h.data, hitParams, true)
		if err != nil {
			o.close()
			return nil, err
		}
		if out := o.do(setupReq, nil); !out.ok() {
			o.close()
			return nil, fmt.Errorf("setup %s job: %s", h.kind, out.err)
		}
		hr, err := o.newRequest(h.kind, h.data, hitParams, false)
		if err != nil {
			o.close()
			return nil, err
		}
		hr.hit = true
		hr.key = o.keys
		o.keys++
		o.hits = append(o.hits, hr)
	}

	// The timed sequence: n requests in a fixed composition, in an order
	// the seed shuffles. Hits cycle over the hit entries; every cold gets
	// a parameter set no other request uses.
	const (
		opHit = iota
		opScan
		opUpload
		opBatch
		opStream
	)
	// Blocks of 25 requests — 10 hits, 6 scans, 3 uploads, 3 batches,
	// 3 streams — each shuffled by the seed, keep the mix uniform along
	// the sequence, so the two clients meet the same interleavings in
	// every run.
	block := []int{opHit, opHit, opHit, opHit, opHit, opHit, opHit, opHit, opHit, opHit,
		opScan, opScan, opScan, opScan, opScan, opScan,
		opUpload, opUpload, opUpload, opBatch, opBatch, opBatch, opStream, opStream, opStream}
	var ops []int
	for len(ops) < n {
		b := append([]int(nil), block...)
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		ops = append(ops, b...)
	}
	ops = ops[:n]
	hit, cold, upload := 0, 0, 0
	for _, op := range ops {
		if op == opHit {
			o.seq = append(o.seq, o.hits[hit%len(o.hits)])
			hit++
			continue
		}
		params := api.ScanParams{GridSize: 40 + cold%20, MaxWindow: float64(35000 + 100*(cold/20))}
		one := base[cold%len(base):][:1]
		cold++
		var req *request
		switch op {
		case opScan:
			req, err = o.newRequest(api.KindScan, one, params, false)
		case opUpload:
			// A fresh dataset the size of a base one: a base dataset
			// minus a few leading SNPs, a different cut for every upload.
			var up *dsRef
			b := base[upload%len(base)].ds
			cut := 1 + upload/len(base)
			if cut >= b.NumSNPs()/10 {
				return nil, fmt.Errorf("sequence of %d ops needs more distinct uploads than the base datasets give", n)
			}
			upload++
			if up, err = ref(b.Slice(cut, b.NumSNPs())); err == nil {
				req, err = o.newRequest(api.KindScan, []*dsRef{up}, params, true)
			}
		case opBatch:
			req, err = o.newRequest(api.KindBatch, reps, params, false)
		case opStream:
			req, err = o.newRequest(api.KindStream, one, params, false)
		}
		if err != nil {
			o.close()
			return nil, err
		}
		req.key = o.keys
		o.keys++
		o.seq = append(o.seq, req)
	}
	return o, nil
}

// newRequest encodes a request for data under params. upload sends
// the datasets inline; otherwise they are named by content hash.
func (o *omegad) newRequest(kind string, data []*dsRef, params api.ScanParams, upload bool) (*request, error) {
	ref := func(d *dsRef) api.DatasetRef {
		if upload {
			return api.DatasetRef{BitmatBase64: base64.StdEncoding.EncodeToString(d.bitmat)}
		}
		return api.DatasetRef{ContentHash: d.hash}
	}
	sr := api.ScanRequest{Schema: api.SchemaVersion, Kind: kind, Params: params}
	if kind == api.KindBatch {
		for _, d := range data {
			sr.Datasets = append(sr.Datasets, ref(d))
		}
	} else {
		sr.Dataset = ref(data[0])
	}
	body, err := sr.Encode()
	if err != nil {
		return nil, err
	}
	return &request{body: body, kind: kind, params: params, data: data, upload: upload}, nil
}

func (o *omegad) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = o.srv.Shutdown(ctx) // the listener is gone either way
	<-o.served
	o.svc.Close()
	o.client.CloseIdleConnections()
}

// warmup repeats every hit entry once: no cache state changes.
func (o *omegad) warmup() error {
	for _, h := range o.hits {
		if out := o.do(h, nil); !out.ok() {
			return errors.New(out.err)
		}
	}
	return nil
}

// callSpans are the client-side spans of one traced op.
type callSpans struct {
	post, events, result float64
}

// outcome is what one op observed.
type outcome struct {
	seconds float64
	status  api.JobStatus
	body    []byte
	refused bool
	err     string
	spans   callSpans
}

func (out *outcome) ok() bool { return out.err == "" }

func terminal(state string) bool { return state != api.StateQueued && state != api.StateRunning }

// do runs one request: POST, wait on the SSE stream for the terminal
// state unless the job was born terminal, then GET the result bytes.
// Latency runs from the POST to the result bytes in hand. spans, when
// non-nil, receives each HTTP call's time.
func (o *omegad) do(req *request, spans *callSpans) (out outcome) {
	t0 := time.Now()
	defer func() { out.seconds = time.Since(t0).Seconds() }()
	resp, err := o.client.Post(o.base+"/v1/scan", "application/json", bytes.NewReader(req.body))
	if err != nil {
		out.err = err.Error()
		return out
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	if err != nil {
		out.err = err.Error()
		return out
	}
	if resp.StatusCode != http.StatusAccepted {
		out.refused = resp.StatusCode == http.StatusTooManyRequests
		out.err = fmt.Sprintf("POST /v1/scan: HTTP %d: %s", resp.StatusCode, b)
		return out
	}
	if err := json.Unmarshal(b, &out.status); err != nil {
		out.err = err.Error()
		return out
	}
	if !terminal(out.status.State) {
		if out.status, err = o.waitEvents(out.status.ID); err != nil {
			out.err = err.Error()
			return out
		}
	}
	t2 := time.Now()
	if out.status.State != api.StateDone {
		out.err = fmt.Sprintf("job %s ended %s", out.status.ID, out.status.State)
		return out
	}
	resp, err = o.client.Get(o.base + "/v1/jobs/" + out.status.ID + "/result")
	if err != nil {
		out.err = err.Error()
		return out
	}
	out.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET result: HTTP %d", resp.StatusCode)
	}
	if err != nil {
		out.err = err.Error()
		return out
	}
	if spans != nil {
		t3 := time.Now()
		*spans = callSpans{post: t1.Sub(t0).Seconds(), events: t2.Sub(t1).Seconds(), result: t3.Sub(t2).Seconds()}
	}
	return out
}

// waitEvents reads the job's SSE stream up to its terminal status.
func (o *omegad) waitEvents(id string) (api.JobStatus, error) {
	resp, err := o.client.Get(o.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return api.JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return api.JobStatus{}, fmt.Errorf("GET events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var st api.JobStatus
		if err := json.Unmarshal([]byte(data), &st); err != nil {
			return api.JobStatus{}, err
		}
		if terminal(st.State) {
			_, _ = io.Copy(io.Discard, resp.Body) // lets the connection be reused
			return st, nil
		}
	}
	if err := sc.Err(); err != nil {
		return api.JobStatus{}, err
	}
	return api.JobStatus{}, fmt.Errorf("job %s: event stream ended before a terminal state", id)
}

// runSeq drives seq closed-loop with the client goroutines; each takes
// the next request of the sequence when its previous one completes.
func (o *omegad) runSeq(seq []*request, traced bool) ([]outcome, float64) {
	outs := make([]outcome, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				var spans *callSpans
				if traced {
					spans = &callSpans{}
				}
				outs[i] = o.do(seq[i], spans)
				if spans != nil {
					outs[i].spans = *spans
				}
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(t0).Seconds()
}

// cacheHits reads omegago_cache_hits_total from /metrics.
func (o *omegad) cacheHits() (int64, error) {
	resp, err := o.client.Get(o.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "omegago_cache_hits_total "); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return int64(f), err
		}
	}
	return 0, fmt.Errorf("/metrics has no omegago_cache_hits_total")
}

// canonical strips a served result to its timing-free canonical bytes
// and returns them with the result's ω score count.
func canonical(kind string, body []byte) ([]byte, int64, error) {
	res := api.JobResult{Schema: api.SchemaVersion, Kind: kind}
	var scores int64
	if kind == api.KindBatch {
		b, err := api.DecodeBatchReport(body)
		if err != nil {
			return nil, 0, err
		}
		res.Batch, scores = &b, b.OmegaScores
	} else {
		s, err := api.DecodeScanReport(body)
		if err != nil {
			return nil, 0, err
		}
		res.Scan, scores = &s, s.OmegaScores
	}
	b, err := res.Canonical()
	return b, scores, err
}

// expected computes the library's canonical result for req.
func expected(req *request) ([]byte, error) {
	cfg, err := omegago.ConfigFromParams(req.params)
	if err != nil {
		return nil, err
	}
	res := api.JobResult{Schema: api.SchemaVersion, Kind: req.kind}
	switch req.kind {
	case api.KindScan:
		rep, err := omegago.Scan(req.data[0].ds, cfg)
		if err != nil {
			return nil, err
		}
		ar := rep.APIReport("", req.data[0].hash)
		res.Scan = &ar
	case api.KindStream:
		src, err := omegago.OpenBitmatSource(req.data[0].path)
		if err != nil {
			return nil, err
		}
		rep, err := omegago.ScanStream(src, cfg)
		src.Close()
		if err != nil {
			return nil, err
		}
		ar := rep.APIReport("", req.data[0].hash)
		res.Scan = &ar
	case api.KindBatch:
		batch := make([]*omegago.Dataset, len(req.data))
		hashes := make([]string, len(req.data))
		for i, d := range req.data {
			batch[i], hashes[i] = d.ds, d.hash
		}
		bh, err := omegago.BatchContentHash(batch)
		if err != nil {
			return nil, err
		}
		br, err := omegago.ScanBatch(context.Background(), batch, cfg)
		if err != nil {
			return nil, err
		}
		b := br.APIBatchReport("", cfg.Backend.String(), hex.EncodeToString(bh[:]), hashes)
		res.Batch = &b
	}
	return res.Canonical()
}

// verify checks every op outside the timed window: the cache outcome
// the sequence fixed, and the served bytes against the library's
// report. It returns the number of failed ops and the ω scores the
// colds computed.
func verify(seq []*request, outs []outcome) (int, int64) {
	want := make(map[int][]byte)
	var mu sync.Mutex
	var firstErr error
	jobs := make(chan *request)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range jobs {
				b, err := expected(req)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				want[req.key] = b
				mu.Unlock()
			}
		}()
	}
	seen := map[int]bool{}
	for _, req := range seq {
		if !seen[req.key] {
			seen[req.key] = true
			jobs <- req
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		fmt.Println("reference error:", firstErr)
	}

	failed := 0
	var scores int64
	for i, req := range seq {
		out := &outs[i]
		if !out.ok() {
			fmt.Println("op failed:", out.err)
			failed++
			continue
		}
		got, n, err := canonical(req.kind, out.body)
		if err != nil || out.status.Cached != req.hit || want[req.key] == nil || !bytes.Equal(got, want[req.key]) {
			failed++
			continue
		}
		if !req.hit {
			scores += n
		}
	}
	return failed, scores
}

// countWork tallies the sequence's fixed cache outcomes.
func countWork(seq []*request) map[string]int64 {
	w := map[string]int64{"omegad.hit": 0, "omegad.cold": 0, "omegad.upload": 0}
	for _, r := range seq {
		if r.hit {
			w["omegad.hit"]++
		} else {
			w["omegad.cold"]++
		}
		if r.upload {
			w["omegad.upload"]++
		}
	}
	return w
}

func (o *omegad) timed(n int) (*phase, error) {
	ph := &phase{work: countWork(o.seq)}
	hits0, err := o.cacheHits()
	if err != nil {
		return nil, err
	}
	cpu0 := cpuSeconds()
	outs, wall := o.runSeq(o.seq, false)
	ph.wall, ph.cpu = wall, cpuSeconds()-cpu0
	hits1, err := o.cacheHits()
	if err != nil {
		return nil, err
	}
	for i, out := range outs {
		ph.opSeconds = append(ph.opSeconds, out.seconds)
		if !o.seq[i].hit {
			ph.coldSeconds = append(ph.coldSeconds, out.seconds)
		}
	}
	ph.verify = func() {
		ph.failed, ph.omegaScores = verify(o.seq, outs)
		ph.work["omegad.cold_omega_scores"] = ph.omegaScores
		if d := hits1 - hits0; d != ph.work["omegad.hit"] {
			fmt.Printf("cache-hit cross-check failed: /metrics delta %d, sequence %d\n", d, ph.work["omegad.hit"])
			ph.failed++
		}
	}
	return ph, nil
}

func (o *omegad) traced(n int) (*tracedRun, error) {
	m := metrics{}
	half := len(o.seq) / 2
	untracedSeq, tracedSeq := o.seq[:half], o.seq[half:]

	gc := startGC()
	e2eOuts, _ := o.runSeq(untracedSeq, false)
	gc.report(m, len(untracedSeq))
	outs, _ := o.runSeq(tracedSeq, true)
	f1, _ := verify(untracedSeq, e2eOuts)
	f2, _ := verify(tracedSeq, outs)
	failed := f1 + f2

	var e2e, tracedOps []float64
	for _, out := range e2eOuts {
		e2e = append(e2e, out.seconds)
	}
	var post, events, result, queue, runS, reqBytes, resBytes, batchReps, hitLat []float64
	var r2, scores, ldS, omegaS float64
	hits, rejected := 0, 0
	for i, out := range outs {
		req := tracedSeq[i]
		tracedOps = append(tracedOps, out.seconds)
		if out.refused {
			rejected++
		}
		if !out.ok() {
			continue
		}
		post = append(post, out.spans.post)
		events = append(events, out.spans.events)
		result = append(result, out.spans.result)
		reqBytes = append(reqBytes, float64(len(req.body)))
		resBytes = append(resBytes, float64(len(out.body)))
		q, r := 0.0, 0.0
		if req.hit {
			hits++
			hitLat = append(hitLat, out.seconds)
		} else {
			sub, e1 := time.Parse(time.RFC3339Nano, out.status.SubmittedAt)
			start, e2 := time.Parse(time.RFC3339Nano, out.status.StartedAt)
			fin, e3 := time.Parse(time.RFC3339Nano, out.status.FinishedAt)
			if e1 == nil && e2 == nil && e3 == nil {
				q, r = start.Sub(sub).Seconds(), fin.Sub(start).Seconds()
			}
			var c struct {
				OmegaScores int64       `json:"omega_scores"`
				R2Computed  int64       `json:"r2_computed"`
				Timing      *api.Timing `json:"timing"`
				Replicates  []struct {
					Report *struct {
						Timing *api.Timing `json:"timing"`
					} `json:"report"`
				} `json:"replicates"`
			}
			if json.Unmarshal(out.body, &c) == nil {
				scores += float64(c.OmegaScores)
				r2 += float64(c.R2Computed)
				if c.Timing != nil {
					ldS += c.Timing.LDSeconds
					omegaS += c.Timing.OmegaSeconds
				}
				for _, rep := range c.Replicates {
					if rep.Report != nil && rep.Report.Timing != nil {
						batchReps = append(batchReps, rep.Report.Timing.WallSeconds)
					}
				}
			}
		}
		queue = append(queue, q)
		runS = append(runS, r)
	}
	k := float64(len(tracedSeq))
	overhead := mean(tracedOps) - mean(e2e)
	m.set("service.post_s", mean(post), "s")
	m.set("service.queue_wait_s", mean(queue), "s")
	m.set("service.run_s", mean(runS), "s")
	m.set("service.result_get_s", mean(result), "s")
	m.set("service.cache_hit_ratio", float64(hits)/k, "ratio")
	m.set("service.hit_p50_s", quantile(hitLat, 0.5), "s")
	m.set("service.rejected", float64(rejected), "count")
	m.set("api.request_bytes", mean(reqBytes), "bytes")
	m.set("api.result_bytes", mean(resBytes), "bytes")
	m.set("batch.replicate_p50_s", quantile(batchReps, 0.5), "s")
	m.set("ld.r2_computed", r2/k, "count")
	m.set("omega.scores", scores/k, "count")
	// The service's own LD and ω split of the colds, from the served
	// timings, per op.
	m.set("ld.r2_s", ldS/k, "s")
	m.set("omega.kernel_s", omegaS/k, "s")
	m.set("trace.overhead_s", overhead, "s")

	if err := o.layerPasses(m, tracedSeq, outs); err != nil {
		return nil, err
	}

	at := &attribution{
		title: fmt.Sprintf("omegad op, POST to result bytes, %d clients; mean of %d traced ops", clients, len(tracedSeq)),
		total: mean(e2e),
	}
	at.add("service.post_s", mean(post))
	at.add("service.queue_wait_s", mean(queue))
	at.add("service.run_s", mean(runS))
	at.add("events wait − queue − run", mean(events)-mean(queue)-mean(runS))
	at.add("service.result_get_s", mean(result))
	m.set("sched.unattributed_s", at.unattributed(), "s")
	return &tracedRun{m: m, table: at.lines(overhead), attempted: len(o.seq), failed: failed}, nil
}

// layerPasses times, in separate passes over the workload's own
// records, the api wire codec, the seqio upload path and the FSStore
// writes.
func (o *omegad) layerPasses(m metrics, seq []*request, outs []outcome) error {
	var dec, enc, bitmatDec, hash []float64
	for i, req := range seq {
		t0 := time.Now()
		if _, err := api.DecodeScanRequest(req.body); err != nil {
			return err
		}
		dec = append(dec, time.Since(t0).Seconds())
		if outs[i].ok() {
			var encode func() ([]byte, error)
			if req.kind == api.KindBatch {
				b, err := api.DecodeBatchReport(outs[i].body)
				if err != nil {
					return err
				}
				encode = b.Encode
			} else {
				s, err := api.DecodeScanReport(outs[i].body)
				if err != nil {
					return err
				}
				encode = s.Encode
			}
			t1 := time.Now()
			if _, err := encode(); err != nil {
				return err
			}
			enc = append(enc, time.Since(t1).Seconds())
		}
		if req.upload {
			t2 := time.Now()
			ds, err := omegago.LoadBitmat(bytes.NewReader(req.data[0].bitmat))
			if err != nil {
				return err
			}
			t3 := time.Now()
			if _, err := omegago.DatasetContentHash(ds); err != nil {
				return err
			}
			bitmatDec = append(bitmatDec, t3.Sub(t2).Seconds())
			hash = append(hash, time.Since(t3).Seconds())
		}
	}
	m.set("api.decode_s", mean(dec), "s")
	m.set("api.encode_s", mean(enc), "s")
	m.set("seqio.bitmat_decode_s", mean(bitmatDec), "s")
	m.set("seqio.hash_s", mean(hash), "s")

	// FSStore: re-put the run's own records into a fresh store.
	var files, written int64
	err := filepath.Walk(o.storeDir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			files++
			written += info.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	ops := float64(len(o.seq) + len(o.hits))
	m.set("store.files", float64(files)/ops, "count")
	m.set("store.bytes_written", float64(written)/ops, "bytes")
	src, err := store.NewFS(o.storeDir, store.Options{})
	if err != nil {
		return err
	}
	dst, err := store.NewFS(filepath.Join(o.dir, "replay-store"), store.Options{})
	if err != nil {
		return err
	}
	recs, err := src.Jobs()
	if err != nil {
		return err
	}
	var putJob, putResult, putBlob []float64
	seenKey, seenBlob := map[string]bool{}, map[string]bool{}
	for _, rec := range recs {
		t0 := time.Now()
		if err := dst.PutJob(rec); err != nil {
			return err
		}
		putJob = append(putJob, time.Since(t0).Seconds())
		if !seenKey[rec.CacheKey] {
			seenKey[rec.CacheKey] = true
			if res, ok, err := src.GetResult(rec.CacheKey); err == nil && ok {
				t1 := time.Now()
				if err := dst.PutResult(rec.CacheKey, res); err != nil {
					return err
				}
				putResult = append(putResult, time.Since(t1).Seconds())
			}
		}
		refs := append([]api.DatasetRef{rec.Request.Dataset}, rec.Request.Datasets...)
		for _, ref := range refs {
			if ref.ContentHash == "" || seenBlob[ref.ContentHash] {
				continue
			}
			seenBlob[ref.ContentHash] = true
			if ds, ok, err := src.GetBlob(ref.ContentHash); err == nil && ok {
				t2 := time.Now()
				if _, err := dst.PutBlob(ds); err != nil {
					return err
				}
				putBlob = append(putBlob, time.Since(t2).Seconds())
			}
		}
	}
	m.set("store.put_job_s", mean(putJob), "s")
	m.set("store.put_result_s", mean(putResult), "s")
	m.set("store.put_blob_s", mean(putBlob), "s")
	return nil
}
