package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"github.com/recurpat/rp/internal/api"
)

// pinsJSON holds the expected answer of every key any run can draw,
// produced by `rpperf -pin` with core.MineVertical — the Eclat-style miner
// that shares no RP-tree or ts-list merge code with RP-growth — so a fast
// but wrong miner fails the benchmark instead of winning it.
//
//go:embed pins.json
var pinsJSON []byte

// pins is the decoded pin file.
type pins struct {
	// Datasets maps a served or pool dataset name to its content
	// fingerprint (16 hex digits), so a run proves the server holds the
	// bytes the answers were pinned on.
	Datasets map[string]string `json:"datasets"`
	// Answers maps cell.String() to answerDigest's "count:digest" form.
	Answers map[string]string `json:"answers"`
}

func loadPins() (*pins, error) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return &p, nil
}

// answerDigest canonically serializes a pattern set — items, support,
// recurrence and intervals of every pattern, in the order given — and
// returns "count:sha256-prefix". The order is part of the answer: servers
// must return patterns in canonical order.
func answerDigest(ps []api.Pattern) string {
	h := sha256.New()
	var b []byte
	for _, p := range ps {
		b = b[:0]
		for _, it := range p.Items {
			b = append(b, it...)
			b = append(b, 0x1f)
		}
		b = append(b, 0x1e)
		b = strconv.AppendInt(b, int64(p.Support), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(p.Recurrence), 10)
		for _, iv := range p.Intervals {
			b = append(b, ';')
			b = strconv.AppendInt(b, iv.Start, 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, iv.End, 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(iv.PS), 10)
		}
		b = append(b, '\n')
		_, _ = h.Write(b) // hash.Hash writes never fail
	}
	return strconv.Itoa(len(ps)) + ":" + hex.EncodeToString(h.Sum(nil)[:12])
}

// mineHead is the part of a /v1/mine response every answer check reads.
type mineHead struct {
	Count   int  `json:"count"`
	Cached  bool `json:"cached"`
	Partial bool `json:"partial"`
}

// checkCount verifies a response's count against the pinned answer without
// decoding its patterns: cheap enough for every response.
func (p *pins) checkCount(c cell, body []byte) (mineHead, error) {
	var h mineHead
	want, ok := p.Answers[c.String()]
	if !ok {
		return h, fmt.Errorf("%s: no pinned answer (run rpperf -pin)", c)
	}
	if err := scanHead(body, &h); err != nil {
		return h, fmt.Errorf("%s: %w", c, err)
	}
	if !strings.HasPrefix(want, strconv.Itoa(h.Count)+":") {
		return h, fmt.Errorf("%s: count %d, pinned answer %s", c, h.Count, want)
	}
	if h.Partial {
		return h, fmt.Errorf("%s: partial result", c)
	}
	return h, nil
}

// checkFull decodes the whole pattern set and compares its digest and its
// count field with the pinned answer.
func (p *pins) checkFull(c cell, body []byte) error {
	var resp api.MineResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s: decoding response: %w", c, err)
	}
	got := answerDigest(resp.Patterns)
	if want := p.Answers[c.String()]; got != want {
		return fmt.Errorf("%s: answer %s, pinned %s", c, got, want)
	}
	if resp.Count != len(resp.Patterns) {
		return fmt.Errorf("%s: count %d but %d patterns", c, resp.Count, len(resp.Patterns))
	}
	if resp.Partial {
		return fmt.Errorf("%s: partial result", c)
	}
	return nil
}

// scanHead decodes count, cached and partial from the leading fields of a
// mine response. rpserved writes api.MineResponse's fields in declaration
// order, so they precede the pattern array; reading only the head keeps the
// per-response check cheap next to a multi-megabyte body.
func scanHead(body []byte, h *mineHead) error {
	i := bytes.Index(body, []byte(`"patterns"`))
	if i < 0 {
		return fmt.Errorf("response has no patterns field")
	}
	head := append(bytes.Clone(bytes.TrimRight(body[:i], " \n\t,")), '}')
	var full struct {
		mineHead
		V int `json:"v"`
	}
	if err := json.Unmarshal(head, &full); err != nil {
		return fmt.Errorf("decoding response head: %w", err)
	}
	if full.V != api.Version {
		return fmt.Errorf("response schema v%d, want v%d", full.V, api.Version)
	}
	*h = full.mineHead
	return nil
}
