package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"kat/internal/online"
	"kat/internal/wire"
)

// conn is one client connection of the load generator: it sends its
// requests strictly one after another, so a key's next request never
// leaves before the previous one is acknowledged.
type conn struct {
	base    string
	useWire bool
	hc      *http.Client
	tr      *http.Transport
	rec     *recorder
	// sleep waits out a Retry-After; tests replace it to record the waits.
	sleep func(time.Duration)

	// attempted and failed count operations over every attempt; every
	// operation of a refused attempt counts as failed.
	attempted int64
	failed    int64
}

func newConn(base string, useWire bool, rec *recorder) *conn {
	tr := &http.Transport{Proxy: nil, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{base: base, useWire: useWire, hc: &http.Client{Transport: tr}, tr: tr, rec: rec,
		sleep: time.Sleep}
}

// closeIdle drops the connection's idle keep-alive socket.
func (c *conn) closeIdle() { c.tr.CloseIdleConnections() }

// retryable reports the typed reject codes the protocol says to resend
// after Retry-After: load shedding and memory pressure refuse a request
// before reading its body, so they lose nothing.
func retryable(status int, code string) bool {
	if status != http.StatusServiceUnavailable {
		return false
	}
	return code == "overload" || code == "memory_pressure"
}

// send delivers one request, following the typed reject protocol: a
// retryable reject waits Retry-After and resends the same body. A reject
// that reports accepted operations ends the run, since the benchmark's
// targets refuse whole requests only. It returns how many attempts were
// refused; any other failure ends the run too.
func (c *conn) send(b batch) (refused int, err error) {
	for {
		c.attempted += int64(b.ops)
		status, header, payload, err := c.post(b.body)
		if err != nil {
			c.failed += int64(b.ops)
			return refused, err
		}
		if status == http.StatusOK {
			return refused, nil
		}
		refused++
		c.failed += int64(b.ops)
		var rej online.IngestReject
		if jerr := json.Unmarshal(payload, &rej); jerr != nil || !retryable(status, rej.Code) {
			return refused, fmt.Errorf("ingest: HTTP %d: %s", status, bytes.TrimSpace(payload))
		}
		if rej.Ingested != 0 {
			return refused, fmt.Errorf("ingest: %q reject accepted %d of %d operations", rej.Code, rej.Ingested, b.ops)
		}
		wait := time.Second
		if s, err := strconv.Atoi(header.Get("Retry-After")); err == nil && s >= 0 {
			wait = time.Duration(s) * time.Second
		}
		c.sleep(wait)
	}
}

// post performs one /ingest attempt and reads the whole response.
func (c *conn) post(body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+"/ingest", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if c.useWire {
		req.Header.Set("Content-Type", wire.ContentType)
	} else {
		req.Header.Set("Content-Type", "text/plain")
	}
	var id, begin int64
	if c.rec != nil {
		id, begin = c.rec.newID(), c.rec.now()
		req.Header.Set(headerParent, strconv.FormatInt(id, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if c.rec != nil {
		c.rec.add(span{Name: spanClientIngest, ID: id, Start: begin, End: c.rec.now()})
	}
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, payload, nil
}

// drain asks the target for its final verdicts.
func drain(base string) (online.VerdictDoc, error) {
	var doc online.VerdictDoc
	resp, err := healthClient.Post(base+"/drain", "application/json", nil)
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		payload, _ := io.ReadAll(resp.Body)
		return doc, fmt.Errorf("drain: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(payload))
	}
	if msg := resp.Header.Get("X-Kavserve-Drain-Error"); msg != "" {
		return doc, fmt.Errorf("drain: %s", msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return doc, fmt.Errorf("drain: %w", err)
	}
	return doc, nil
}
