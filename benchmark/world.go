package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/watdiv"
)

// world is everything one run sets up: the dataset as N-Triples text,
// the loaded store, the servers the chosen paths need, and the
// reference-evaluated instance pool.
type world struct {
	scale int
	nt    []byte
	store *core.Store

	httpSrv *http.Server
	client  *http.Client
	baseURL string
	coord   *shard.Coordinator
	shards  []*shard.Server

	templates []string
	pool      [][]*instance // per template
	// distinct lists each different instance text once, in pool order.
	distinct []*instance
}

func loadStore(nt []byte) (*core.Store, error) {
	return core.LoadNTriples(bytes.NewReader(nt), core.Options{Cluster: cluster.MustNew(cluster.DefaultConfig())})
}

// generate produces the workload's dataset as N-Triples text.
func generate(s *spec, scale int, seed int64) ([]byte, error) {
	dseed := int64(datasetSeed)
	if s.path == pathLoad {
		dseed = seed
	}
	g, err := watdiv.Generate(watdiv.Config{Scale: scale, Seed: dseed})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, g); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// buildWorld generates, serialises and loads the dataset and boots the
// servers the paths need. It is the part of set-up that scales with
// the data and with anything the store precomputes at load.
func buildWorld(s *spec, scale int, seed int64, paths []path) (*world, error) {
	nt, err := generate(s, scale, seed)
	if err != nil {
		return nil, err
	}
	w := &world{scale: scale, nt: nt}
	if w.store, err = loadStore(nt); err != nil {
		return nil, err
	}
	for _, p := range paths {
		switch p {
		case pathHTTP:
			err = w.bootHTTP()
		case pathShard:
			err = w.bootShards(2)
		}
		if err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

func (w *world) bootHTTP() error {
	h, err := serve.New(serve.Config{Store: w.store})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.httpSrv = &http.Server{Handler: h}
	go w.httpSrv.Serve(ln) // returns once close() shuts the server down
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
	w.baseURL = "http://" + ln.Addr().String()
	return nil
}

// bootShards starts n shard servers as goroutines on loopback
// listeners, all serving the one read-only store (loading is
// deterministic, so a shared store is indistinguishable from n
// separate loads), and dials a coordinator to them.
func (w *world) bootShards(n int) error {
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv, err := shard.NewServer(w.store, i, n)
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		go srv.Serve(ln) // returns once close() closes the server
		w.shards = append(w.shards, srv)
		addrs[i] = ln.Addr().String()
	}
	coord, err := shard.Dial(w.store, addrs)
	if err != nil {
		return err
	}
	w.coord = coord
	return nil
}

// close stops every server the world started and waits for the HTTP
// server's connections to finish.
func (w *world) close() {
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		w.httpSrv.Shutdown(ctx)
		cancel()
	}
	if w.coord != nil {
		w.coord.Close()
	}
	for _, s := range w.shards {
		s.Close()
	}
}

// drawInstances builds the instance pool from seed and
// reference-evaluates each distinct instance once in-process with the
// plan cache bypassed and the default executor, keeping its row count
// and row-multiset hash. Every later execution, on any path, is
// checked against these.
func (w *world) drawInstances(templates []string, pool int, seed int64) error {
	p, err := buildPool(templates, pool, w.scale, seed)
	if err != nil {
		return err
	}
	w.templates, w.pool, w.distinct = templates, p, nil
	if w.baseURL != "" {
		if err := attachRequests(p, w.baseURL); err != nil {
			return err
		}
	}
	seen := map[string]*instance{}
	for _, insts := range p {
		for _, in := range insts {
			if ref, ok := seen[in.text]; ok {
				in.wantRows, in.wantHash = ref.wantRows, ref.wantHash
				continue
			}
			res, err := w.store.QueryContext(context.Background(), in.parsed, core.QueryOptions{NoPlanCache: true})
			if err != nil {
				return fmt.Errorf("reference evaluation of %s: %w", in.parsed.Name, err)
			}
			in.wantRows, in.wantHash = len(res.Rows), hashRows(res.Rows)
			seen[in.text] = in
			w.distinct = append(w.distinct, in)
		}
	}
	return nil
}

// hashRows is an order-independent digest of a result: the sum of the
// FNV-1a hashes of its rows, so executors that emit the same multiset
// in different orders agree without sorting.
func hashRows(rows [][]rdf.Term) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	var sum uint64
	for _, row := range rows {
		h := uint64(offset)
		mix := func(s string) {
			for i := 0; i < len(s); i++ {
				h = (h ^ uint64(s[i])) * prime
			}
			h = (h ^ 0xff) * prime
		}
		for _, t := range row {
			h = (h ^ uint64(t.Kind)) * prime
			mix(t.Value)
			mix(t.Datatype)
			mix(t.Lang)
		}
		sum += h
	}
	return sum
}

// outcome is what one operation returned, as far as the loop needs it.
type outcome struct {
	rows   int
	simNs  int64
	wallNs int64 // the engine's own wall time for the query
	bytes  int   // HTTP response body size
	// res is the in-process result; body the HTTP response, valid until
	// the executor's next call.
	res  *core.Result
	body []byte
}

// executor runs one instance down one path. Executors are not shared
// between clients.
type executor func(in *instance, out *outcome) error

func (w *world) newExecutor(p path) executor {
	switch p {
	case pathMat:
		return w.coreExecutor(core.QueryOptions{})
	case pathStream:
		return w.coreExecutor(core.QueryOptions{Streaming: true})
	case pathShard:
		return w.coreExecutor(core.QueryOptions{Dist: w.coord})
	case pathHTTP:
		return w.httpExecutor()
	default:
		return w.loadExecutor()
	}
}

func (w *world) coreExecutor(opts core.QueryOptions) executor {
	ctx := context.Background()
	return func(in *instance, out *outcome) error {
		res, err := w.store.QueryContext(ctx, in.parsed, opts)
		if err != nil {
			return err
		}
		*out = outcome{rows: len(res.Rows), simNs: int64(res.SimTime), wallNs: int64(res.WallTime), res: res}
		return nil
	}
}

// httpExecutor sends the instance's prebuilt request, reads the body
// into a buffer it keeps, and takes rows, simMs and wallMs from the
// trailing stats object without decoding the bindings.
func (w *world) httpExecutor() executor {
	buf := make([]byte, 0, 1<<16)
	return func(in *instance, out *outcome) error {
		resp, err := w.client.Do(in.req)
		if err != nil {
			return err
		}
		buf = buf[:0]
		for {
			if len(buf) == cap(buf) {
				buf = append(buf, 0)[:len(buf)]
			}
			n, rerr := resp.Body.Read(buf[len(buf):cap(buf)])
			buf = buf[:len(buf)+n]
			if rerr != nil {
				break
			}
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return statusError(resp.StatusCode)
		}
		st, ok := scanStats(buf)
		if !ok {
			return errNoStats
		}
		*out = outcome{rows: st.rows, simNs: int64(math.Round(st.simMs * 1e6)), wallNs: int64(math.Round(st.wallMs * 1e6)), bytes: len(buf), body: buf}
		return nil
	}
}

type statusError int

func (e statusError) Error() string { return fmt.Sprintf("HTTP status %d", int(e)) }

var errNoStats = fmt.Errorf("response carries no stats object")

// loadExecutor loads the world's N-Triples text into a fresh cluster
// and file system and asks the new store the instance's probe query.
func (w *world) loadExecutor() executor {
	ctx := context.Background()
	return func(in *instance, out *outcome) error {
		store, err := loadStore(w.nt)
		if err != nil {
			return err
		}
		rep := store.LoadReport()
		if want := w.store.LoadReport().Triples; rep.Triples != want {
			return fmt.Errorf("loaded %d triples, want %d", rep.Triples, want)
		}
		res, err := store.QueryContext(ctx, in.parsed, core.QueryOptions{})
		if err != nil {
			return err
		}
		*out = outcome{rows: len(res.Rows), simNs: int64(rep.LoadTime), wallNs: int64(rep.WallTime), res: res}
		return nil
	}
}

// resultHash digests what the operation returned: the in-process rows,
// or the HTTP bindings decoded back into terms.
func (out *outcome) resultHash() (uint64, error) {
	if out.res != nil {
		return hashRows(out.res.Rows), nil
	}
	var doc struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results struct {
			Bindings []map[string]struct {
				Type     string `json:"type"`
				Value    string `json:"value"`
				Datatype string `json:"datatype"`
				Lang     string `json:"xml:lang"`
			} `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(out.body, &doc); err != nil {
		return 0, fmt.Errorf("decoding response: %w", err)
	}
	rows := make([][]rdf.Term, len(doc.Results.Bindings))
	for i, b := range doc.Results.Bindings {
		row := make([]rdf.Term, len(doc.Head.Vars))
		for j, v := range doc.Head.Vars {
			c, bound := b[v]
			if !bound {
				continue
			}
			switch c.Type {
			case "uri":
				row[j] = rdf.NewIRI(c.Value)
			case "bnode":
				row[j] = rdf.NewBlank(c.Value)
			default:
				row[j] = rdf.Term{Kind: rdf.KindLiteral, Value: c.Value, Datatype: c.Datatype, Lang: c.Lang}
			}
		}
		rows[i] = row
	}
	return hashRows(rows), nil
}

// check compares an outcome against the instance's reference: always
// the row count, and the row hash too when full is set.
func (in *instance) check(out *outcome, full bool) error {
	if out.rows != in.wantRows {
		return fmt.Errorf("%s returned %d rows, reference has %d", in.parsed.Name, out.rows, in.wantRows)
	}
	if !full {
		return nil
	}
	h, err := out.resultHash()
	if err != nil {
		return err
	}
	if h != in.wantHash {
		return fmt.Errorf("%s rows hash to %x, reference %x", in.parsed.Name, h, in.wantHash)
	}
	return nil
}

type respStats struct {
	rows          int
	simMs, wallMs float64
}

// scanStats reads "rows", "simMs" and "wallMs" from the stats object
// that ends a /sparql JSON response, leaving the bindings undecoded.
func scanStats(body []byte) (respStats, bool) {
	i := bytes.LastIndex(body, []byte(`"stats":{`))
	if i < 0 {
		return respStats{}, false
	}
	tail := body[i:]
	rows, ok1 := scanNumber(tail, `"rows":`)
	sim, ok2 := scanNumber(tail, `"simMs":`)
	wall, ok3 := scanNumber(tail, `"wallMs":`)
	return respStats{rows: int(rows), simMs: sim, wallMs: wall}, ok1 && ok2 && ok3
}

// scanNumber parses the JSON number that follows key in b.
func scanNumber(b []byte, key string) (float64, bool) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0, false
	}
	b = b[i+len(key):]
	n := 0
	for n < len(b) && strings.IndexByte("+-.eE0123456789", b[n]) >= 0 {
		n++
	}
	v, err := strconv.ParseFloat(string(b[:n]), 64)
	return v, err == nil
}
