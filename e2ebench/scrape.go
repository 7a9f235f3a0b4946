package main

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"pitex/obsv"
)

// scrape reads a server's /metrics exposition and sums each family's
// samples across labels.
func scrape(ctx context.Context, c *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", base, resp.StatusCode)
	}
	fams, err := obsv.ParseText(string(body))
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	out := make(map[string]float64, len(fams))
	for name, f := range fams {
		for _, s := range f.Samples {
			if s.Name == name {
				out[name] += s.Value
			}
		}
	}
	return out, nil
}

// counterDelta is what a /metrics scrape pair says happened in between.
type counterDelta map[string]float64

func diff(before, after map[string]float64) counterDelta {
	d := make(counterDelta, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// ratio is d[num]/d[den], or 0 when the denominator did not move.
func (d counterDelta) ratio(num, den string) float64 {
	if d[den] == 0 {
		return 0
	}
	return d[num] / d[den]
}
