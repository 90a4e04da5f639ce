package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"storemlp/internal/server"
)

const (
	// requestTimeout bounds one request; a request that takes longer fails.
	requestTimeout = 60 * time.Second
	// probeMisses is how many of the serve stream's first misses the
	// traced mode's layer probes cover, besides the hot set.
	probeMisses = 8
)

// child is the service under test: internal/server in its own process,
// configured as cmd/mlpsimd configures it, speaking h2c.
type child struct {
	cmd     *exec.Cmd
	base    string
	client  *http.Client
	drained chan struct{} // closed when the child's stdout reaches EOF
}

// startChild starts the service. Untraced, it runs with request spans
// and the run tracer disabled.
func startChild(ctx context.Context, bin string, traced bool) (*child, error) {
	cmd := exec.Command(bin, "-trace="+strconv.FormatBool(traced))
	// The child dies with this process even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		out.Close()
		return nil, fmt.Errorf("starting service child: %w", err)
	}
	c := &child{cmd: cmd, drained: make(chan struct{})}
	ready := make(chan string, 1)
	go func() {
		defer close(c.drained)
		br := bufio.NewReader(out)
		line, _ := br.ReadString('\n') // EOF before the line means the child died
		ready <- strings.TrimSpace(line)
		_, _ = io.Copy(io.Discard, br) // later output is not needed
	}()
	var line string
	select {
	case line = <-ready:
	case <-time.After(30 * time.Second):
	case <-ctx.Done():
	}
	addr, ok := strings.CutPrefix(line, "mlpsimd listening on ")
	if !ok {
		c.stop()
		return nil, fmt.Errorf("service child did not report its address (got %q)", line)
	}
	c.base = "http://" + addr
	// HTTP/2 over cleartext, multiplexing every in-flight request over
	// at most nproc connections.
	var protos http.Protocols
	protos.SetUnencryptedHTTP2(true)
	c.client = &http.Client{Transport: &http.Transport{
		Protocols:       &protos,
		MaxConnsPerHost: runtime.NumCPU(),
	}}
	return c, nil
}

// peakRSSMB is the child's VmHWM.
func (c *child) peakRSSMB() (float64, error) { return peakRSSMB(strconv.Itoa(c.cmd.Process.Pid)) }

// stop shuts the child down gracefully (SIGTERM), killing it if it has
// not exited within ten seconds, and waits for it.
func (c *child) stop() {
	if c.client != nil {
		c.client.CloseIdleConnections()
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // fails only if it has exited already
	select {
	case <-c.drained:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill() // fails only if it has exited already
		<-c.drained
	}
	_ = c.cmd.Wait() // a signalled exit is expected
}

// post sends one /v1/run request and decodes a 200 response.
func (c *child) post(ctx context.Context, req server.RunRequest) (server.RunResponse, error) {
	var resp server.RunResponse
	body, err := json.Marshal(req)
	if err != nil {
		return resp, err
	}
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return resp, err
	}
	hresp, err := c.client.Do(hreq)
	if err != nil {
		return resp, err
	}
	defer hresp.Body.Close()
	b, err := io.ReadAll(hresp.Body)
	if err != nil {
		return resp, err
	}
	if hresp.StatusCode != http.StatusOK {
		return resp, fmt.Errorf("status %d: %s", hresp.StatusCode, bytes.TrimSpace(b))
	}
	if hresp.ProtoMajor != 2 {
		return resp, fmt.Errorf("response over %s, want HTTP/2", hresp.Proto)
	}
	return resp, json.Unmarshal(b, &resp)
}

// histogram is one /debug/obs/vars histogram.
type histogram struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
}

// vars fetches the service's histograms from /debug/obs/vars.
func (c *child) vars(ctx context.Context) (map[string]histogram, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/debug/obs/vars", nil)
	if err != nil {
		return nil, err
	}
	hresp, err := c.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hresp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(hresp.Body).Decode(&raw); err != nil {
		return nil, fmt.Errorf("decoding /debug/obs/vars: %w", err)
	}
	out := make(map[string]histogram)
	for k, v := range raw {
		if strings.HasPrefix(k, "mlpsimd_stage_seconds") || strings.HasPrefix(k, "mlpsimd_request_seconds") {
			var h histogram
			if err := json.Unmarshal(v, &h); err != nil {
				return nil, fmt.Errorf("decoding %s: %w", k, err)
			}
			out[k] = h
		}
	}
	return out, nil
}

// outcome is what happened to one scheduled request.
type outcome struct {
	Sched, Sent, Done time.Duration // since the window start
	OK                bool          // a 200 whose result passed the check
	Cached, Coalesced bool
	Insts             int64 // simulated (warm + measured) by the point
}

func (o outcome) latency() time.Duration { return o.Done - o.Sched }

// drive sends every arrival at its scheduled time to the child to picks,
// each on its own goroutine, and returns once all have completed.
// inTable says whether the golden table should hold an arrival's point.
func drive(ctx context.Context, e *env, to func(arrival) *child, arrs []arrival, inTable func(arrival) bool) []outcome {
	out := make([]outcome, len(arrs))
	var wg sync.WaitGroup
	timer := time.NewTimer(0)
	defer timer.Stop()
	t0 := time.Now()
	for i := range arrs {
		if d := time.Until(t0.Add(arrs[i].At)); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a := arrs[i]
			o := outcome{Sched: a.At, Sent: time.Since(t0), Insts: a.Point.total()}
			sp := e.tr.start("loadgen.request", 0, int64(i))
			resp, err := to(a).post(ctx, a.Point.request())
			key := a.Point.key()
			if err != nil {
				e.chk.fail(key, err)
			} else {
				o.OK = e.chk.check(key, countersOfResult(resp.Result), a.Point.Insts, responseFields, inTable(a))
				o.Cached, o.Coalesced = resp.Cached, resp.Coalesced
			}
			o.Done = time.Since(t0)
			e.tr.end(sp, 1)
			out[i] = o
		}(i)
	}
	wg.Wait()
	return out
}

// opsOf counts attempted and failed requests.
func opsOf(outs []outcome) (attempted, failed int64) {
	for _, o := range outs {
		attempted++
		if !o.OK {
			failed++
		}
	}
	return attempted, failed
}

// meanServiceMS is the mean time from actual send to verified response.
func meanServiceMS(outs []outcome) float64 {
	var sum float64
	n := 0
	for _, o := range outs {
		if o.OK {
			sum += ms(o.Done - o.Sent)
			n++
		}
	}
	return sum / float64(n)
}

// warmHotSet sends every hot-set point once, at most nproc at a time.
func warmHotSet(ctx context.Context, e *env, c *child, hot []point) error {
	arrs := make([]arrival, len(hot))
	for i, p := range hot {
		arrs[i] = arrival{Kind: arriveMiss, Point: p}
	}
	var failed int64
	for i := 0; i < len(arrs); i += runtime.NumCPU() {
		batch := arrs[i:min(i+runtime.NumCPU(), len(arrs))]
		_, f := opsOf(drive(ctx, e, func(arrival) *child { return c }, batch, func(arrival) bool { return true }))
		failed += f
	}
	e.rep.ops(int64(len(arrs)), failed)
	if failed > 0 {
		return fmt.Errorf("%d of %d hot-set warm-up requests failed", failed, len(arrs))
	}
	return ctx.Err()
}

// serveSetup starts a child and warms the hot set into its cache.
func serveSetup(ctx context.Context, e *env, traced bool) (*child, error) {
	c, err := startChild(ctx, e.childBin, traced)
	if err != nil {
		return nil, err
	}
	if err := warmHotSet(ctx, e, c, hotSet(e.seed)); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// serveWindow runs the serve schedule, sending each arrival to the child
// to picks.
func serveWindow(ctx context.Context, e *env, to func(arrival) *child, arrs []arrival) []outcome {
	outs := drive(ctx, e, to, arrs, func(a arrival) bool { return a.Kind == arriveHit || a.Miss < e.chk.g.ServeMisses })
	e.rep.ops(opsOf(outs))
	return outs
}

func runServe(ctx context.Context, e *env) error {
	arrs := schedule(e.seed, e.window, serveRate)
	// Setup: start the child and warm the hot set. Every repetition but
	// the last stops its child; the last serves the timed window.
	var c *child
	setup, err := timeSetup(func(rep int) error {
		var err error
		if c, err = serveSetup(ctx, e, false); err != nil {
			return err
		}
		if rep < setupReps-1 {
			c.stop()
		}
		return nil
	})
	if err != nil {
		return err
	}
	if e.traced {
		err := serveTraced(ctx, e, c, arrs)
		c.stop()
		return err
	}
	outs := serveWindow(ctx, e, func(arrival) *child { return c }, arrs)
	rss, err := c.peakRSSMB()
	c.stop()
	if err != nil {
		return err
	}

	var lat []float64
	var good, executed int64
	var wall time.Duration // from the window start to the last response
	for _, o := range outs {
		wall = max(wall, o.Done)
		if !o.OK {
			continue
		}
		lat = append(lat, ms(o.latency()))
		if o.latency() <= goodputLimit {
			good++
		}
		if !o.Cached && !o.Coalesced {
			executed += o.Insts
		}
	}
	r := e.rep
	r.set("setup_s", setup, "s", setupReps)
	r.set("minsts_per_s", float64(executed)/wall.Seconds()/1e6, "Minst/s", len(lat))
	r.set("p50_ms", percentile(lat, 50), "ms", len(lat))
	r.set("p99_ms", percentile(lat, 99), "ms", len(lat))
	r.set("goodput_rps", float64(good)/wall.Seconds(), "1/s", len(outs))
	r.set("peak_rss_mb", rss, "MiB", 1)
	flagLate(r, outs)
	return nil
}

// flagLate sets loadgen.late_p99_ms from outs and flags the run invalid
// when it exceeds lateLimit.
func flagLate(r *report, outs []outcome) {
	late := make([]float64, len(outs))
	for i, o := range outs {
		late[i] = ms(o.Sent - o.Sched)
	}
	p99 := percentile(late, 99)
	r.set("loadgen.late_p99_ms", p99, "ms", len(late))
	if p99 > ms(lateLimit) {
		r.invalid = append(r.invalid, fmt.Sprintf("load generator p99 lateness %.2f ms exceeds %v", p99, lateLimit))
	}
}

// serveTraced is serve's traced mode. A second child runs with request
// spans and the run tracer on, as mlpsimd runs by default. The window is
// cut into overheadSlices equal slices: arrivals of the even slices go
// to the untraced child c and those of the odd slices to the traced one,
// so host speed drift reaches both alike. A duplicate follows its first
// copy. The traced child's stage histograms are scraped around the
// window. Then come the layer probes over the hot set and the first
// misses.
func serveTraced(ctx context.Context, e *env, c *child, arrs []arrival) error {
	e.tr.record(time.Now(), 0)
	tc, err := serveSetup(ctx, e, true)
	if err != nil {
		return err
	}
	defer tc.stop()
	width := e.window / overheadSlices
	traced := func(a arrival) bool {
		at := a.At
		if a.Kind == arriveDup {
			at -= dupDelay
		}
		return at/width%2 == 1
	}
	var plain []outcome
	touts, unattributed, err := scrapeWindow(ctx, e, tc, func() []outcome {
		outs := serveWindow(ctx, e, func(a arrival) *child {
			if traced(a) {
				return tc
			}
			return c
		}, arrs)
		flagLate(e.rep, outs)
		var touts []outcome
		for i, o := range outs {
			if traced(arrs[i]) {
				touts = append(touts, o)
			} else {
				plain = append(plain, o)
			}
		}
		return touts
	})
	if err != nil {
		return err
	}
	e.rep.set("unattributed_share", unattributed, "ratio", len(touts))
	e.rep.set("trace_overhead", meanServiceMS(touts)/meanServiceMS(plain)-1, "ratio", len(touts)+len(plain))

	pr := newProber(e)
	probes := hotSet(e.seed)
	for _, a := range arrs {
		if a.Kind == arriveMiss && a.Miss < probeMisses {
			probes = append(probes, a.Point)
		}
	}
	for _, p := range probes {
		if err := pr.probePoint(p, p.key(), true); err != nil {
			return err
		}
	}
	dir, err := scratchDir(e, "serve-traces")
	if err != nil {
		return err
	}
	for _, p := range onePerWorkload(probes) {
		if err := pr.probeRewrite(p); err != nil {
			return err
		}
		path, err := writeTrace(dir, p)
		if err != nil {
			return err
		}
		if err := pr.probeDecode(path); err != nil {
			return err
		}
	}
	pr.simLayers(layerPath{})
	return nil
}

// scrapeWindow runs window between two /debug/obs/vars scrapes of c.
// window returns the outcomes of the requests c served; over them it
// reports the server layer metrics and the request mix. It returns them
// and the share of mean client latency that neither a server stage nor
// transport explains.
func scrapeWindow(ctx context.Context, e *env, c *child, window func() []outcome) ([]outcome, float64, error) {
	before, err := c.vars(ctx)
	if err != nil {
		return nil, 0, err
	}
	outs := window()
	after, err := c.vars(ctx)
	if err != nil {
		return nil, 0, err
	}
	delta := func(k string) histogram {
		return histogram{Count: after[k].Count - before[k].Count, Sum: after[k].Sum - before[k].Sum}
	}
	reqs := delta(`mlpsimd_request_seconds{endpoint="run"}`)
	if reqs.Count == 0 {
		return nil, 0, fmt.Errorf("the service recorded no /v1/run request")
	}
	r := e.rep
	perReqMS := func(h histogram) float64 { return 1000 * h.Sum / float64(reqs.Count) }
	var stageMS float64
	for _, st := range []string{"parse", "digest", "cache_probe", "coalesce_wait", "pool_wait", "simulate", "render"} {
		v := perReqMS(delta(`mlpsimd_stage_seconds{stage="` + st + `"}`))
		stageMS += v
		r.set("server."+st+"_ms", v, "ms", int(reqs.Count))
	}
	client := meanServiceMS(outs)
	transport := client - perReqMS(reqs)
	r.set("server.transport_ms", transport, "ms", int(reqs.Count))
	var hits, coalesced, executed int
	for _, o := range outs {
		switch {
		case !o.OK:
		case o.Cached:
			hits++
		case o.Coalesced:
			coalesced++
		default:
			executed++
		}
	}
	n := float64(len(outs))
	r.set("server.hit_ratio", float64(hits)/n, "ratio", len(outs))
	r.set("server.coalesced_ratio", float64(coalesced)/n, "ratio", len(outs))
	r.set("server.executed", float64(executed), "count", len(outs))
	return outs, 1 - (stageMS+transport)/client, nil
}

// serviceProbe measures the server layers on a workload that does not
// use the service: a traced child serves each of points cold, a
// duplicate of it while the first copy simulates, and later a repeat
// from its cache.
func serviceProbe(ctx context.Context, e *env, points []point) error {
	c, err := startChild(ctx, e.childBin, true)
	if err != nil {
		return err
	}
	defer c.stop()
	const gap = 20 * time.Millisecond
	var arrs []arrival
	for i, p := range points {
		at := time.Duration(i) * gap
		arrs = append(arrs, arrival{At: at, Kind: arriveMiss, Point: p}, arrival{At: at + dupDelay, Kind: arriveDup, Point: p})
	}
	// The repeats are sent after every first copy has had time to finish.
	after := time.Duration(len(points))*gap + 2*time.Second
	for i, p := range points {
		arrs = append(arrs, arrival{At: after + time.Duration(i)*gap, Kind: arriveHit, Point: p})
	}
	_, _, err = scrapeWindow(ctx, e, c, func() []outcome {
		outs := drive(ctx, e, func(arrival) *child { return c }, arrs, func(arrival) bool { return true })
		e.rep.ops(opsOf(outs))
		flagLate(e.rep, outs)
		return outs
	})
	return err
}
