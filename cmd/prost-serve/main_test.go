package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/serve"
)

// TestSlowClientLosesItsConnection: a client that opens a request and
// never finishes its headers is disconnected within readHeaderTimeout,
// and while it holds its connection a query on the same server answers.
func TestSlowClientLosesItsConnection(t *testing.T) {
	g := rdf.NewGraph(0)
	for i := range 10 {
		g.AddSPO(rdf.NewIRI(fmt.Sprintf("http://example.org/s%d", i)), rdf.NewIRI("http://example.org/p"), rdf.NewIRI("http://example.org/o"))
	}
	store, err := core.Load(g, core.Options{Cluster: cluster.MustNew(cluster.DefaultConfig())})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	hs := newHTTPServer(addr, srv)
	go hs.Serve(ln)
	defer hs.Close()

	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	opened := time.Now()
	if _, err := io.WriteString(slow, "GET /sparql?query=x HTTP/1.1\r\nHost: "+addr+"\r\nX-Slow: "); err != nil {
		t.Fatal(err)
	}

	query := url.QueryEscape("SELECT ?s WHERE { ?s <http://example.org/p> <http://example.org/o> }")
	resp, err := http.Get("http://" + addr + "/sparql?format=tsv&query=" + query)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || strings.Count(string(body), "example.org/s") != 10 {
		t.Fatalf("a query beside the slow client: status %d, err %v, body %q", resp.StatusCode, err, body)
	}

	bound := readHeaderTimeout + 5*time.Second
	slow.SetReadDeadline(opened.Add(bound))
	if _, err := io.ReadAll(slow); err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("the server still holds a connection whose headers never came after %v", bound)
		}
	}
	t.Logf("an unfinished request was dropped after %v", time.Since(opened).Round(time.Millisecond))
}

// TestReadBoundsLeaveTheHandlerAlone: a handler that runs well past both
// read bounds is not cancelled, whether its request had a body or not,
// while a client that stops partway through its body is dropped. The
// bounds are shortened here so that the test runs in about a second.
func TestReadBoundsLeaveTheHandlerAlone(t *testing.T) {
	const bound = 100 * time.Millisecond
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.ReadAll(r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		select {
		case <-r.Context().Done():
			http.Error(w, "cancelled", http.StatusServiceUnavailable)
		case <-time.After(5 * bound):
			io.WriteString(w, "done")
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	hs := newHTTPServer(addr, h)
	hs.ReadHeaderTimeout, hs.ReadTimeout = bound, bound
	go hs.Serve(ln)
	defer hs.Close()

	for _, method := range []string{http.MethodGet, http.MethodPost} {
		req, err := http.NewRequest(method, "http://"+addr+"/", strings.NewReader(strings.Repeat("q", 64*(len(method)-3))))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || string(body) != "done" {
			t.Errorf("%s: a handler running past the read bounds answered %d %q (err %v)", method, resp.StatusCode, body, err)
		}
	}

	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if _, err := io.WriteString(slow, "POST / HTTP/1.1\r\nHost: "+addr+"\r\nContent-Length: 100\r\n\r\npartial"); err != nil {
		t.Fatal(err)
	}
	slow.SetReadDeadline(time.Now().Add(bound + 5*time.Second))
	if _, err := io.ReadAll(slow); err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("the server still holds a connection whose body never came")
		}
	}
}
