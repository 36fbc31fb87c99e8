package main

// Reading the server's own /metrics counters. Per-phase numbers are
// deltas between a scrape before and after the phase. A series the
// server no longer exports makes the derived metric absent, never an
// error.

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// scrape is one /metrics snapshot: plain series and histogram
// _sum/_count series by name (bucket series are skipped).
type scrape map[string]float64

func getScrape(c *http.Client, base string) scrape {
	out := scrape{}
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return out
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "_bucket{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// delta returns after-before for a series present in after.
func delta(before, after scrape, name string) (float64, bool) {
	a, ok := after[name]
	if !ok {
		return 0, false
	}
	return a - before[name], true
}

// deltaPrefix sums the deltas of every series with the prefix and
// suffix (e.g. all fsml_shed_*_total counters).
func deltaPrefix(before, after scrape, prefix, suffix string) (float64, bool) {
	var sum float64
	found := false
	for name, a := range after {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			sum += a - before[name]
			found = true
		}
	}
	return sum, found
}

// histMean returns the mean of a histogram's observations over a phase.
func histMean(before, after scrape, name string) (mean, sum, count float64, ok bool) {
	s, ok1 := delta(before, after, name+"_sum")
	n, ok2 := delta(before, after, name+"_count")
	if !ok1 || !ok2 || n <= 0 {
		return 0, 0, 0, false
	}
	return s / n, s, n, true
}

// hasPrefix reports whether any series name starts with prefix.
func hasPrefix(sc scrape, prefix string) bool {
	for name := range sc {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}
