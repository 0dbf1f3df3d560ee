package main

import (
	"bytes"
	"fmt"
	"net/http"
	"slices"
	"time"
)

// client issues requests over one keep-alive connection.
type client struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer
}

func newClient(addr string) *client {
	return &client{
		base: "http://" + addr,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}},
	}
}

// do sends r and reads the whole body. The latency runs from sending the
// request to reading the last body byte. The body is only valid until the
// next call.
func (c *client) do(r *request) (status int, body []byte, lat time.Duration, err error) {
	req, err := http.NewRequest(r.method, c.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, 0, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	lat = time.Since(start)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), lat, err
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// scrape reads whpcd's /metrics.
func (c *client) scrape() (metrics, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body), nil
}

// runList sends each listed request once, checking every response.
func (c *client) runList(p *plan, list []int, phase string, chk *checker) {
	for i, ri := range list {
		r := p.reqs[ri]
		status, body, _, err := c.do(r)
		chk.check(phase, i, r, status, body, err)
	}
}

// segment is a stretch of whole passes within a measured phase.
type segment struct {
	reqs, ok int
	elapsed  time.Duration
	lat      []time.Duration
	cpu      time.Duration // whpcd CPU over the segment
	steal    float64       // share of the machine's CPU time the hypervisor took
}

// measured is the outcome of a measured phase.
type measured struct {
	lat     []time.Duration // every request, in send order
	ok      int
	passes  int
	elapsed time.Duration
	segs    []segment
}

// runMeasured replays whole passes of the measured list until d has
// elapsed, closing a segment after each pass that ends at least seg after
// the segment began. probe reads whpcd's CPU time and the machine's steal
// time at segment boundaries.
func (c *client) runMeasured(p *plan, d, seg time.Duration, chk *checker, probe func() (time.Duration, float64)) measured {
	var m measured
	m.lat = make([]time.Duration, 0, 1<<16)
	start := time.Now()
	from, segStart, segOK := 0, start, 0
	cpu0, steal0 := probe()
	for time.Since(start) < d || m.passes == 0 {
		for i, ri := range p.measured {
			r := p.reqs[ri]
			status, body, lat, err := c.do(r)
			m.lat = append(m.lat, lat)
			if chk.check("measured", m.passes*len(p.measured)+i, r, status, body, err) {
				m.ok++
			}
		}
		m.passes++
		now := time.Now()
		if now.Sub(segStart) < seg && now.Sub(start) < d {
			continue
		}
		cpu1, steal1 := probe()
		el := now.Sub(segStart)
		m.segs = append(m.segs, segment{
			reqs: len(m.lat) - from, ok: m.ok - segOK, elapsed: el, lat: m.lat[from:],
			cpu: cpu1 - cpu0, steal: (steal1 - steal0) / el.Seconds(),
		})
		from, segStart, segOK, cpu0, steal0 = len(m.lat), now, m.ok, cpu1, steal1
	}
	m.elapsed = time.Since(start)
	return m
}

// quantile returns the q-quantile of ds (nearest rank) in milliseconds.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(q*float64(len(s)-1) + 0.5)
	return float64(s[i]) / float64(time.Millisecond)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
