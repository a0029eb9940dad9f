package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"fabricpower/internal/studyd"
)

// server is an in-process studyd.Server on a loopback port.
type server struct {
	srv    *studyd.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

// startServer starts a studyd server with the benchmark's limits (two
// studies at once, each on workers sweep goroutines) and returns once
// /healthz answers.
func startServer(workers int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:    studyd.New(studyd.Config{MaxConcurrent: 2, Workers: workers}),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		served: make(chan error, 1),
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := s.client.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("studyd did not become healthy: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the server and waits for its serve loop to return.
func (s *server) stop() {
	s.srv.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.served
	s.client.CloseIdleConnections()
}

// request is one study submitted over HTTP, timed from the client.
type request struct {
	// records are the result-record lines in enumeration order:
	// byte-identical to the library's WriteResultRecords.
	records []byte
	points  int
	// total is POST to the study_finish line, admit POST to the
	// study_start line.
	total, admit time.Duration
	// serverMS is the finish line's server-side durationMS.
	serverMS float64
	// bytes is the size of the record and event lines received.
	bytes int
}

// submit posts one spec through studyd.Submit, the client behind
// `fabricpower submit`. A refused, failed or truncated stream is an
// error.
func (s *server) submit(spec []byte) (*request, error) {
	out := &request{}
	start := time.Now()
	var recs bytes.Buffer
	res, err := studyd.Submit(context.Background(), s.client, s.url, bytes.NewReader(spec), studyd.SubmitOptions{},
		studyd.SubmitSinks{
			Records: &recs,
			Events: func(line []byte) {
				out.bytes += len(line)
				switch {
				case bytes.HasPrefix(line, []byte(`{"kind":"study_start"`)):
					out.admit = time.Since(start)
				case bytes.HasPrefix(line, []byte(`{"kind":"study_finish"`)):
					out.total = time.Since(start)
				}
			},
		})
	if err != nil {
		return nil, err
	}
	if res.RemoteErr != "" {
		return nil, fmt.Errorf("study failed: %s", res.RemoteErr)
	}
	if res.Completed != res.Points || res.Records != res.Points {
		return nil, fmt.Errorf("study finished %d/%d points with %d records", res.Completed, res.Points, res.Records)
	}
	out.records = recs.Bytes()
	out.bytes += len(out.records)
	out.points = res.Points
	out.serverMS = res.DurationMS
	return out, nil
}
