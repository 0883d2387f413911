package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oclgemm/internal/blas"
	"oclgemm/internal/matrix"
	"oclgemm/internal/obs"
	"oclgemm/internal/serve"
)

// serveRate is the open loop's arrival rate. It sits well under one
// worker's capacity, so latency measures the request path, not a queue.
const serveRate = 100.0

// serveKind is one request kind of the serve-mixed mix.
type serveKind struct {
	m, n, k int
	single  bool
	beta    float64
	count   int // > 0: one /v1/gemm/batched request of count items
}

// serveKinds is RunLoad's four small shapes in both precisions plus one
// strided batch; one pass sends each once.
var serveKinds = []serveKind{
	{m: 8, n: 8, k: 4}, {m: 8, n: 8, k: 4, single: true},
	{m: 16, n: 8, k: 8, beta: 0.5}, {m: 16, n: 8, k: 8, beta: 0.5, single: true},
	{m: 8, n: 24, k: 4}, {m: 8, n: 24, k: 4, single: true},
	{m: 13, n: 19, k: 11}, {m: 13, n: 19, k: 11, single: true},
	{m: 16, n: 16, k: 8, count: 16},
}

func (k serveKind) flops() float64 { return blas.FlopCount(k.m, k.n, k.k) * float64(max(k.count, 1)) }

// wireReq is one pre-generated request: operands, reference result and,
// once sent, the decoded output.
type wireReq interface {
	kind() serveKind
	encode(w io.Writer) error
	decode(r io.Reader) (*serve.RespHeader, error)
	check() error
}

type typedReq[T matrix.Scalar] struct {
	k        serveKind
	h        serve.Header
	a, b, c  []T
	want     []T
	got      []T
	tol      float64
	received bool
}

func newWireReq(rng *rand.Rand, k serveKind) wireReq {
	if k.single {
		return newTypedReq[float32](rng, k)
	}
	return newTypedReq[float64](rng, k)
}

func newTypedReq[T matrix.Scalar](rng *rand.Rand, k serveKind) *typedReq[T] {
	r := &typedReq[T]{k: k, h: serve.Header{Precision: "double", M: k.m, N: k.n, K: k.k, Alpha: 1.25, Beta: k.beta, Count: k.count}}
	if k.single {
		r.h.Precision = "single"
		r.tol = matrix.Tolerance(matrix.Single, k.k)
	}
	count := max(k.count, 1)
	na, nb, nc := k.m*k.k, k.k*k.n, k.m*k.n
	r.a, r.b = randSlice[T](rng, na*count), randSlice[T](rng, nb*count)
	r.want = make([]T, nc*count)
	if k.beta != 0 {
		r.c = randSlice[T](rng, nc*count)
		copy(r.want, r.c)
	}
	for i := 0; i < count; i++ {
		a := matrix.FromSlice(k.m, k.k, matrix.RowMajor, r.a[i*na:(i+1)*na])
		b := matrix.FromSlice(k.k, k.n, matrix.RowMajor, r.b[i*nb:(i+1)*nb])
		c := matrix.FromSlice(k.m, k.n, matrix.RowMajor, r.want[i*nc:(i+1)*nc])
		blas.GEMM(blas.NoTrans, blas.NoTrans, T(r.h.Alpha), a, b, T(r.h.Beta), c)
	}
	return r
}

func (r *typedReq[T]) kind() serveKind { return r.k }

func (r *typedReq[T]) encode(w io.Writer) error {
	if r.k.count > 0 {
		return serve.EncodeBatchedRequest(w, &r.h, r.a, r.b, r.c)
	}
	return serve.EncodeRequest(w, &r.h, r.a, r.b, r.c)
}

func (r *typedReq[T]) decode(rd io.Reader) (*serve.RespHeader, error) {
	var rh *serve.RespHeader
	var err error
	if r.k.count > 0 {
		rh, r.got, err = serve.DecodeBatchedResponse[T](rd, r.k.m, r.k.n, r.k.count)
	} else {
		rh, r.got, err = serve.DecodeResponse[T](rd, r.k.m, r.k.n)
	}
	if err == nil && !rh.OK {
		err = fmt.Errorf("ok=false: %s", rh.Error)
	}
	r.received = err == nil
	return rh, err
}

func (r *typedReq[T]) check() error {
	if !r.received {
		return errors.New("no result")
	}
	return compareSlices(r.got, r.want, r.tol)
}

// serveEnv is one in-process server on a loopback port with the two
// keep-alive client connections that talk to it.
type serveEnv struct {
	srv     *serve.Server
	hs      *http.Server
	url     string
	served  chan error
	clients [2]*http.Client
	reg     *obs.Registry
	tr      *obs.Tracer
}

func startServer(traced bool, warm []wireReq) (*serveEnv, error) {
	cfg := serve.Config{Workers: 1}
	if traced {
		cfg.Metrics, cfg.Trace = obs.NewRegistry(), obs.NewTracer(1<<16)
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	e := &serveEnv{
		srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(),
		served: make(chan error, 1), reg: srv.Metrics(), tr: cfg.Trace,
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	for i := range e.clients {
		e.clients[i] = &http.Client{Timeout: time.Minute, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}
	}
	// One cold request per kind builds every plan.
	for _, rq := range warm {
		if err := e.send(e.clients[0], rq, nil, nil); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return e, nil
}

func (e *serveEnv) close() {
	for _, c := range e.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: server shutdown: %v\n", err)
	}
	if err := <-e.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "perfbench: server: %v\n", err)
	}
	if err := e.srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: server drain: %v\n", err)
	}
	e.srv.Close()
}

// outcome is what one request of the open loop saw.
type outcome struct {
	lat, lag, rtt, codec time.Duration
	serverMS             float64
	batch                int
	shed                 bool
	err                  error
}

// send posts one request and decodes its response. With a span it
// records the encode, the HTTP round trip and the decode as children.
func (e *serveEnv) send(c *http.Client, rq wireReq, sp *span, out *outcome) error {
	if out == nil {
		out = &outcome{}
	}
	t0 := time.Now()
	es := sp.child("serve.EncodeRequest")
	var body bytes.Buffer
	err := rq.encode(&body)
	es.end()
	if err != nil {
		return err
	}
	out.codec = time.Since(t0)
	path := "/v1/gemm"
	if rq.kind().count > 0 {
		path += "/batched"
	}
	t1 := time.Now()
	hs := sp.child("http.POST " + path)
	resp, err := c.Post(e.url+path, "application/octet-stream", &body)
	hs.end()
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		out.shed = resp.StatusCode == http.StatusTooManyRequests
		return fmt.Errorf("status %d: %s", resp.StatusCode, msg)
	}
	t2 := time.Now()
	ds := sp.child("serve.DecodeResponse")
	rh, err := rq.decode(resp.Body)
	ds.end()
	t3 := time.Now()
	out.codec += t3.Sub(t2)
	out.rtt = t3.Sub(t1)
	if err != nil {
		return err
	}
	out.serverMS, out.batch = rh.ElapsedMS, rh.BatchSize
	return nil
}

// runServeMixed is an open loop of seeded Poisson arrivals at serveRate
// from one process over two keep-alive connections to an in-process
// serve.Server with default admission, quotas and coalescing window.
// Latency runs from each request's scheduled send time, so a stall also
// counts against the requests queued behind it.
func runServeMixed(cfg config) (*report, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	var warm []wireReq
	for _, k := range serveKinds {
		warm = append(warm, newWireReq(rng, k))
	}
	passes := int(serveRate*cfg.seconds+float64(len(serveKinds))-1) / len(serveKinds)
	var reqs []wireReq
	for p := 0; p < passes; p++ {
		for _, i := range rng.Perm(len(serveKinds)) {
			reqs = append(reqs, newWireReq(rng, serveKinds[i]))
		}
	}
	sched := arrivals(rng, len(reqs), time.Duration(float64(len(reqs))/serveRate*float64(time.Second)))

	rep := &report{layers: map[string]float64{}}
	plain, setups, err := timeSetups(func() (*serveEnv, error) { return startServer(false, warm) }, (*serveEnv).close)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	rep.setups = setups
	envs := []*serveEnv{plain}
	var tr *tracer
	if cfg.trace {
		traced, err := startServer(true, warm)
		if err != nil {
			return nil, err
		}
		defer traced.close()
		envs = append(envs, traced)
		tr = newTracer()
	}
	before := readCounters(envs[len(envs)-1].reg)

	// In trace mode whole passes alternate between the two servers.
	target := func(i int) int { return (i / len(serveKinds)) % len(envs) }
	outs := make([]outcome, len(reqs))
	var depthMax atomic.Int64
	rep.plain = &meter{}
	runtime.GC()
	probe := startStealProbe()
	c0 := cpuTime()
	start := time.Now().Add(5 * time.Millisecond)
	work := make(chan int, len(reqs)) // holds every request, so dispatch never blocks
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				e := envs[target(i)]
				var sp *span
				if target(i) == 1 {
					sp = tr.op("serve.request")
				}
				o := &outs[i]
				o.err = e.send(e.clients[s], reqs[i], sp, o)
				o.lat = time.Since(start.Add(sched[i]))
				sp.end()
				if target(i) == 1 {
					d := e.reg.Gauge("serve.queue.depth").Value()
					for cur := depthMax.Load(); d > cur && !depthMax.CompareAndSwap(cur, d); cur = depthMax.Load() {
					}
				}
			}
		}()
	}
	for i := range reqs {
		due := start.Add(sched[i])
		time.Sleep(time.Until(due))
		outs[i].lag = time.Since(due)
		work <- i
		rep.plain.sampleHeap()
	}
	close(work)
	wg.Wait()
	rep.plain.busy = time.Since(start)
	rep.plain.cpu = cpuTime() - c0
	rep.health.StealShare = probe.share()

	// Output checks run after the window.
	ms := []*meter{rep.plain}
	if cfg.trace {
		rep.traced = &meter{busy: rep.plain.busy}
		ms = append(ms, rep.traced)
	}
	for i, o := range outs {
		err := o.err
		if err == nil {
			err = reqs[i].check()
		}
		ms[target(i)].count(o.lat, reqs[i].kind().flops(), err)
	}
	if cfg.trace {
		traced := envs[1]
		tr.adopt(traced.tr.Snapshot())
		if err := serveLayers(rep, tr, traced, before, reqs, outs, target); err != nil {
			return nil, err
		}
		rep.layers["serve.queue_depth_max"] = float64(depthMax.Load())
		writeTrace(cfg, tr)
	}
	return rep, nil
}

// arrivals returns n Poisson arrival offsets over a window of the given
// length: n uniform times, sorted, are a Poisson process conditioned on
// n arrivals, so every seed offers the same count at the same mean rate.
func arrivals(rng *rand.Rand, n int, window time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// serveLayers fills the serve, loadgen, gemmimpl, kernels and clsim rows
// from the traced server's requests.
func serveLayers(rep *report, tr *tracer, e *serveEnv, before map[string]int64, reqs []wireReq, outs []outcome, target func(int) int) error {
	imD, err := tahitiImpl(matrix.Double)
	if err != nil {
		return err
	}
	imS, err := tahitiImpl(matrix.Single)
	if err != nil {
		return err
	}
	L := rep.layers
	var server, wire, lags []float64
	var codecUS, batch, coalesced, shed, n, useful, padded float64
	for i, o := range outs {
		lags = append(lags, float64(o.lag.Nanoseconds())/1e6)
		if target(i) != 1 {
			continue
		}
		n++
		if o.shed {
			shed++
		}
		if o.err != nil {
			continue
		}
		server = append(server, o.serverMS)
		wire = append(wire, float64(o.rtt.Nanoseconds())/1e6-o.serverMS)
		codecUS += float64(o.codec.Nanoseconds()) / 1e3
		batch += float64(o.batch)
		if o.batch > 1 {
			coalesced++
		}
		k := reqs[i].kind()
		useful += k.flops()
		im := imD
		if k.single {
			im = imS
		}
		mp, np, kp := im.PaddedDims(k.m, k.n, k.k)
		padded += blas.FlopCount(mp, np, kp) * float64(max(k.count, 1))
	}
	ok := float64(len(server))
	L["serve.server_ms_p50"], _ = percentile(server, 50)
	L["serve.wire_ms_p50"], _ = percentile(wire, 50)
	L["serve.codec_us"] = codecUS / ok
	L["serve.batch_size_mean"] = batch / ok
	L["serve.coalesced_share"] = coalesced / ok
	L["serve.shed_share"] = shed / n
	L["loadgen.lag_p99_ms"], _ = percentile(lags, 99)

	sums := engineSums{useful: useful, padded: padded}
	tr.each(func(spans []spanRec) {
		for i := range spans {
			if spans[i].isCall() && strings.HasPrefix(spans[i].Name, "http.") {
				sums.call += float64(spans[i].DurNS) / 1e6
			} else {
				sums.addPhase(&spans[i])
			}
		}
	})
	engineLayers(L, sums, since(e.reg, before), n)
	return nil
}
