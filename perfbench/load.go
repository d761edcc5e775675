package main

import (
	"bufio"
	"bytes"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"indoorsq/internal/snapshot/bundle"
)

// Phases of a run. Warm-up samples are dropped; an untraced run measures
// phase A only, a traced run measures A untraced and then B traced.
const (
	phaseWarm = iota
	phaseA
	phaseB
)

// traceHeader marks a request the middleware traces.
const traceHeader = "X-Perfbench-Trace"

// sample is one completed request as the client saw it.
type sample struct {
	at     time.Duration // send time, from the start of the run
	lat    time.Duration
	kind   int8
	phase  int8
	ok     bool
	ops    int32
	engine int8 // index into bundle.EngineNames; -1 when the response names none
}

// schedule fixes the phase boundaries of one closed-loop run.
type schedule struct {
	warm, a, b time.Duration
}

// clientRun is one client's record: its samples and how many requests of
// its sequence it sent (the sequence wraps around when exhausted).
type clientRun struct {
	samples []sample
	sent    int
	bStart  int // index of the first request sent in phase B (-1: none)
	err     error
}

// drive runs the closed loop: one goroutine per sequence, each with its own
// keep-alive connection, sending its next request only after the previous
// response was read in full. It returns when every client has stopped.
func drive(addr string, seqs [][]request, sch schedule) []clientRun {
	t0 := time.Now()
	warmEnd := t0.Add(sch.warm)
	aEnd := warmEnd.Add(sch.a)
	end := aEnd.Add(sch.b)
	runs := make([]clientRun, len(seqs))
	var wg sync.WaitGroup
	for c := range seqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runs[c] = runClient(addr, seqs[c], t0, warmEnd, aEnd, end)
		}(c)
	}
	wg.Wait()
	return runs
}

func runClient(addr string, seq []request, t0, warmEnd, aEnd, end time.Time) clientRun {
	k := &conn{addr: addr}
	defer k.close()
	run := clientRun{bStart: -1}
	var body bytes.Buffer
	for i := 0; ; i++ {
		now := time.Now()
		if !now.Before(end) {
			break
		}
		phase := int8(phaseB)
		switch {
		case now.Before(warmEnd):
			phase = phaseWarm
		case now.Before(aEnd):
			phase = phaseA
		}
		if phase == phaseB && run.bStart < 0 {
			run.bStart = i
		}
		rq := &seq[i%len(seq)]
		start := time.Now()
		status, err := k.do(rq, phase == phaseB, &body)
		lat := time.Since(start)
		if err != nil && k.dialErr {
			run.err = err
			break
		}
		run.sent = i + 1
		ok := err == nil && status/100 == 2
		s := sample{at: start.Sub(t0), lat: lat, kind: int8(rq.kind), phase: phase, ok: ok, ops: int32(rq.ops), engine: -1}
		if ok && rq.kind <= kindSPD {
			s.engine = engineIndex(body.Bytes())
		}
		run.samples = append(run.samples, s)
	}
	return run
}

// conn is one client's keep-alive HTTP/1.1 connection. The client writes
// each request and reads its response on its own goroutine, with no
// transport goroutines in between, so client time is the socket round
// trip plus the server. A broken connection is redialled on the next
// request.
type conn struct {
	addr    string
	c       net.Conn
	br      *bufio.Reader
	req     []byte
	dialErr bool
}

// do sends rq and reads the whole response body into body.
func (k *conn) do(rq *request, traced bool, body *bytes.Buffer) (int, error) {
	if k.c == nil {
		c, err := net.Dial("tcp", k.addr)
		if err != nil {
			k.dialErr = true
			return 0, err
		}
		k.c, k.br = c, bufio.NewReader(c)
	}
	w := k.req[:0]
	if rq.body != nil {
		w = append(w, "POST "...)
	} else {
		w = append(w, "GET "...)
	}
	w = append(w, rq.path...)
	w = append(w, " HTTP/1.1\r\nHost: "...)
	w = append(w, k.addr...)
	if traced {
		w = append(w, "\r\n"+traceHeader+": 1"...)
	}
	if rq.body != nil {
		w = append(w, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		w = strconv.AppendInt(w, int64(len(rq.body)), 10)
	}
	w = append(w, "\r\n\r\n"...)
	w = append(w, rq.body...)
	k.req = w
	body.Reset()
	if _, err := k.c.Write(w); err != nil {
		k.close()
		return 0, err
	}
	resp, err := http.ReadResponse(k.br, nil)
	if err != nil {
		k.close()
		return 0, err
	}
	_, err = body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		k.close()
		return 0, err
	}
	return resp.StatusCode, nil
}

func (k *conn) close() {
	if k.c != nil {
		k.c.Close()
		k.c = nil
	}
}

// engineIndex finds the "engine" field of a query response without a full
// decode, after the request's clock has stopped.
func engineIndex(body []byte) int8 {
	const key = `"engine":"`
	i := bytes.LastIndex(body, []byte(key))
	if i < 0 {
		return -1
	}
	rest := body[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return -1
	}
	for e, name := range bundle.EngineNames {
		if string(rest[:j]) == name {
			return int8(e)
		}
	}
	return -1
}
