package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecodeRequests checks the strict request decoders against
// themselves: whatever one accepts must survive a re-encode and decode to
// an equal value, and a body one decoder rejects as a newer schema version
// the other must reject too.
func FuzzDecodeRequests(f *testing.F) {
	for _, seed := range []string{
		// Bodies the rpserved tests send.
		`{"db":"shop","per":4,"minPS":3,"minRec":1,"collectStats":true}`,
		`{"db":"shop","per":4,"minPS":3,"minRec":1,"itemOrder":"lex"}`,
		`{"db":"shop","per":4,"minPS":3,"minRec":1,"disableErecPruning":true}`,
		`{"db":"big","per":9,"minPS":5,"minRec":2,"parallelism":2}`,
		`{"per":2,"minPS":2,"bogus":1}`,
		`{"v":2,"db":"shop","per":4,"minPS":3}`,
		`{"dataset":"00000000000000ff","per":4,"minPSPercent":2.5}`,
		strings.Repeat(" ", 256) + `{"db":"shop","per":4,"minPS":3}`,
		`{"v":1,"fingerprint":"00000000000000ff","per":4,"minPS":3,"minRec":1,"shard":1,"shards":2,"requestID":"coord-7","trace":true}`,
		`{"per":4,"minPS":3,"shard":3,"shards":3,"db":"shop"}`,
		`{"v":9,"fingerprint":"00000000000000ff","per":4,"minPS":3,"shard":0,"shards":2}`,
		`{} {}`,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		mine, mineErr := DecodeMineRequest(bytes.NewReader(body))
		if mineErr == nil {
			roundTrip(t, mine, DecodeMineRequest)
		}
		shard, shardErr := DecodeShardMineRequest(bytes.NewReader(body))
		if shardErr == nil {
			roundTrip(t, shard, DecodeShardMineRequest)
		}
		var ve *VersionError
		if errors.As(mineErr, &ve) && shardErr == nil {
			t.Errorf("mine decoder: %v; shard decoder accepted %q", mineErr, body)
		}
		if errors.As(shardErr, &ve) && mineErr == nil {
			t.Errorf("shard decoder: %v; mine decoder accepted %q", shardErr, body)
		}
	})
}

// roundTrip re-encodes an accepted request and decodes it again.
func roundTrip[T any](t *testing.T, req *T, decode func(io.Reader) (*T, error)) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("re-encoding %+v: %v", *req, err)
	}
	again, err := decode(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("decoding re-encoded %s: %v", b, err)
	}
	if !reflect.DeepEqual(req, again) {
		t.Errorf("round trip changed the request:\n%+v\n%+v", *req, *again)
	}
}
