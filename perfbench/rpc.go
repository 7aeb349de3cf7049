package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adoc"
	"adoc/adocmux"
	"adoc/adocrpc"
	"adoc/internal/datagen"
)

const (
	// rpcMatrixN makes each request a ~300 KB ASCII dense matrix.
	rpcMatrixN = 122
	// rpcRequests is how many different request matrices a run rotates.
	rpcRequests = 8
	rpcCallers  = 2
	// rpcChangeFrac is the share of the server state's lines each call
	// rewrites.
	rpcChangeFrac = 0.03
	// rpcWarmCalls lets the dictionary train and the delta caches fill.
	rpcWarmCalls = 16
)

// rpc runs two closed-loop callers sharing one adocrpc.Pool session to a
// Server over the paced link. A call sends a dense matrix in ASCII (the
// paper's NetSolve payload); the server answers with a same-sized snapshot
// of the state it holds, a few percent of whose lines change per call.
type rpc struct {
	e    *env
	reqs [][]byte

	// Server state, guarded by mu.
	mu        sync.Mutex
	lines     [][]byte
	rng       *rand.Rand
	changed   int64 // state bytes rewritten by calls so far
	delivered int64 // state bytes answered so far
	// expect maps an op id to the response body its handler returned.
	expect sync.Map

	op        atomic.Int64
	fwd, back *linkStats
	ln        net.Listener
	srv       *adocrpc.Server
	pool      *adocrpc.Pool
	srvDone   chan struct{}
}

func newRPC(e *env) (workload, error) {
	r := &rpc{e: e, rng: rand.New(rand.NewSource(e.seed*1000 + 500))}
	for i := range rpcRequests {
		r.reqs = append(r.reqs, datagen.EncodeMatrixASCII(datagen.DenseMatrix(rpcMatrixN, e.seed*1000+int64(100+i))))
	}
	state := datagen.EncodeMatrixASCII(datagen.DenseMatrix(rpcMatrixN, e.seed*1000+99))
	r.lines = bytes.SplitAfter(state, []byte("\n"))
	return r, nil
}

func (r *rpc) setUp() error {
	r.fwd, r.back = &linkStats{}, &linkStats{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.ln = ln
	mux := adocmux.Config{EnableDict: true}
	r.srv = adocrpc.NewServer(adocrpc.ServerConfig{Mux: mux})
	r.srv.Register("solve", r.solve)
	r.srv.Register("ping", func(_ context.Context, args [][]byte) ([][]byte, error) { return args, nil })
	r.srvDone = make(chan struct{})
	go func() {
		defer close(r.srvDone)
		r.srv.Serve(&linkListener{Listener: ln, bitsPerSec: lan100, stats: r.back, env: r.e})
	}()
	addr := ln.Addr().String()
	r.pool, err = adocrpc.NewPool(adocrpc.PoolConfig{
		Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			c, err := d.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			return newLink(c, lan100, r.fwd, r.e), nil
		},
		MaxSessions: 1,
		EnableDelta: true,
		Mux:         mux,
	})
	if err != nil {
		r.srv.Close()
		<-r.srvDone
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), r.e.opTimeout)
	defer cancel()
	// Set-up ends with one small verified exchange, which dials the
	// session and runs its handshake.
	hello := r.reqs[0][:helloSize]
	res, err := r.pool.Call(ctx, "ping", [][]byte{hello})
	if err == nil && (len(res) != 1 || !bytes.Equal(res[0], hello)) {
		err = errors.New("ping answered with the wrong bytes")
	}
	if err != nil {
		r.tearDown()
		return fmt.Errorf("first call: %w", err)
	}
	return nil
}

func (r *rpc) tearDown() {
	r.pool.Close()
	r.srv.Close()
	<-r.srvDone
}

// solve is the server's handler: it checks the request against the matrix
// the caller sent, advances the state by one version and answers with a
// snapshot of it.
func (r *rpc) solve(_ context.Context, args [][]byte) ([][]byte, error) {
	start := time.Now()
	if len(args) != 2 || len(args[0]) != hdrLen {
		return nil, errors.New("malformed request")
	}
	op, parent := readHeader(args[0])
	if !bytes.Equal(args[1], r.reqs[(op-1)%rpcRequests]) {
		return nil, fmt.Errorf("op %d: request bytes differ from what the caller sent", op)
	}
	r.mu.Lock()
	nChange := int(float64(len(r.lines)) * rpcChangeFrac)
	for range nChange {
		i := r.rng.Intn(len(r.lines))
		r.lines[i] = updateLine(r.lines[i], r.rng)
		r.changed += int64(len(r.lines[i]))
	}
	snap := bytes.Join(r.lines, nil)
	r.delivered += int64(len(snap))
	r.mu.Unlock()
	r.expect.Store(op, snap)
	hdr := make([]byte, hdrLen)
	putHeader(hdr, op, 0)
	if tr := r.e.tr.Load(); tr != nil && parent != 0 {
		tr.record(tr.id(), parent, op, "adocrpc.handler", start, time.Now())
	}
	if r.e.tampers(op) {
		snap = tampered(snap)
	}
	return [][]byte{hdr, snap}, nil
}

// updateLine rewrites the mantissa digits of every value on a line of
// datagen.EncodeMatrixASCII output, keeping signs, exponents and so the
// line's length: the values change in place, as in a numeric state whose
// entries are updated rather than inserted.
func updateLine(line []byte, rng *rand.Rand) []byte {
	out := append([]byte(nil), line...)
	for i := 0; i < len(out); i++ {
		if out[i] == '.' {
			for j := i + 1; j < len(out) && out[j] >= '0' && out[j] <= '9'; j++ {
				out[j] = byte('0' + rng.Intn(10))
			}
		}
	}
	return out
}

func (r *rpc) warmUp() error {
	return r.callers(rpcWarmCalls/rpcCallers, time.Time{}, nil)
}

func (r *rpc) drive(w *window, d time.Duration) error {
	return r.callers(-1, time.Now().Add(d), w)
}

// callers runs the closed-loop callers, each for n calls or, when n < 0,
// until end, recording verified calls in w when it is not nil.
func (r *rpc) callers(n int, end time.Time, w *window) error {
	errs := make([]error, rpcCallers)
	var wg sync.WaitGroup
	for c := range rpcCallers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; n < 0 && time.Now().Before(end) || i < n; i++ {
				if errs[c] = r.call(w); errs[c] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// call makes one verified call. Mismatches are counted and the loop goes
// on; a transport error ends it.
func (r *rpc) call(w *window) error {
	op := r.op.Add(1)
	r.e.begin()
	req := r.reqs[(op-1)%rpcRequests]
	tr := r.e.tr.Load()
	var root, call int64
	if tr != nil {
		root, call = tr.id(), tr.id()
	}
	hdr := make([]byte, hdrLen)
	putHeader(hdr, op, call)
	ctx, cancel := context.WithTimeout(context.Background(), r.e.opTimeout)
	defer cancel()
	t0 := time.Now()
	res, err := r.pool.Call(ctx, "solve", [][]byte{hdr, req})
	t1 := time.Now()
	want, _ := r.expect.LoadAndDelete(op)
	if err != nil {
		r.e.fail("op %d: call: %v", op, err)
		var remote *adocrpc.RemoteError
		if errors.As(err, &remote) {
			return nil
		}
		return err
	}
	if len(res) != 2 || len(res[0]) != hdrLen || want == nil {
		r.e.fail("op %d: malformed response", op)
		return nil
	}
	if gotOp, _ := readHeader(res[0]); gotOp != op || !bytes.Equal(res[1], want.([]byte)) {
		r.e.fail("op %d: response bytes differ from what the server sent", op)
		return nil
	}
	if tr != nil {
		tr.record(call, root, op, "adocrpc.call", t0, t1)
		tr.record(root, 0, op, "op", t0, t1)
	}
	if w != nil {
		w.add(t1.Sub(t0), int64(len(hdr)+len(req)+len(res[0])+len(res[1])))
	}
	return nil
}

func (r *rpc) wireBytes() int64 {
	s := r.pool.Stats()
	return s.WireSent + s.WireReceived
}

func (r *rpc) stats() adoc.Stats { return r.pool.Stats() }

func (r *rpc) links() []*linkStats { return []*linkStats{r.fwd, r.back} }

func (r *rpc) layers(w *window, tr *tracing, m map[string]float64) {
	calls, handlers := tr.byOp("adocrpc.call"), tr.byOp("adocrpc.handler")
	var callMs, handlerMs, overheadMs []float64
	for op, c := range calls {
		if h, ok := handlers[op]; ok {
			callMs = append(callMs, c)
			handlerMs = append(handlerMs, h)
			overheadMs = append(overheadMs, c-h)
		}
	}
	m["adocrpc.call_ms"] = p50(callMs)
	m["adocrpc.handler_ms"] = p50(handlerMs)
	m["adocrpc.overhead_ms"] = p50(overheadMs)
	m["adocrpc.sessions"] = float64(r.pool.NumSessions())
	s0, s1 := w.statsAt, w.statsEnd
	m["adocmux.tunnel_wire_ratio"] = frac(float64(s1.WireSent+s1.WireReceived-s0.WireSent-s0.WireReceived),
		float64(s1.RawSent+s1.RawReceived-s0.RawSent-s0.RawReceived))
	r.mu.Lock()
	m["adocrpc.response_unchanged_frac"] = 1 - frac(float64(r.changed), float64(r.delivered))
	r.mu.Unlock()
	m["adocnet.handshake_ms"] = handshakeMs(r.e, lan100, adocmux.TransportOptions())
}

func (r *rpc) codecSample() [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append(append([][]byte(nil), r.reqs...), bytes.Join(r.lines, nil))
}
