package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"storemlp/internal/digest"
)

// FuzzRunRequest drives arbitrary request bodies through the server's
// strict JSON decode, resolve and digest. Whatever the bytes,
// resolution must not panic; a resolved spec must respect the
// instruction cap (0 < insts, 0 <= warm, insts+warm <= MaxInsts, with
// no int64 wrap-around); a rejection must be a 400; and decoding the
// same body twice must digest identically. The strict decoder may
// refuse a body the lenient one accepts only for an unknown field, and
// where both accept it they must agree.
func FuzzRunRequest(f *testing.F) {
	const maxInsts = 10_000_000
	s := New(Config{
		Runner:   countingRunner(new(atomic.Int64), 0),
		Logger:   quietLogger(),
		MaxInsts: maxInsts,
	})
	defer s.Close()

	f.Add([]byte(`{"insts": 4611686018427387904, "warm": 4611686018427387904, "workload": "tpcw"}`))
	f.Add([]byte(`{"workload": "database", "insts": 1000, "warm": 100}`))
	f.Add([]byte(`{"workload": "specjbb", "insts": 9999999, "warm": 1}`))
	f.Add([]byte(`{"workload": "specweb", "insts": -5, "warm": 10}`))
	f.Add([]byte(`{"workload": "tpcw", "parallel": 4}`))
	f.Add([]byte(`{"workload": "tpcw", "parallel": 1, "seed": 7, "config": {"model": "wc", "hws": 2}}`))
	f.Add([]byte(`{"workload": "TPCW", "insts": 9223372036854775807, "warm": 1}`))

	f.Add([]byte(`{"workload": "tpcw", "isnts": 1000}`))
	f.Add([]byte(`{"workload": "database", "config": {"modle": "wc"}}`))
	f.Add([]byte(`{"workload": "specjbb"} {"insts": 5}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		var req, lenient RunRequest
		err := decodeJSON(bytes.NewReader(body), &req)
		lenientErr := json.Unmarshal(body, &lenient)
		if err != nil {
			if lenientErr == nil && !strings.Contains(err.Error(), "unknown field") {
				t.Fatalf("strict decode refused a valid body with %v", err)
			}
			return
		}
		if lenientErr == nil && !reflect.DeepEqual(req, lenient) {
			t.Fatalf("strict decode %+v, lenient %+v", req, lenient)
		}
		spec, key, err := s.resolve(req)
		if err != nil {
			var he *httpError
			if !errors.As(err, &he) || he.status != http.StatusBadRequest {
				t.Fatalf("rejection %v is not a 400", err)
			}
			return
		}
		if spec.Insts <= 0 || spec.Warm < 0 || spec.Insts > maxInsts || spec.Warm > maxInsts-spec.Insts {
			t.Fatalf("accepted insts %d warm %d past the cap %d", spec.Insts, spec.Warm, maxInsts)
		}
		if key != digest.Sum(spec) {
			t.Fatalf("digest %s is not the spec's digest", key)
		}
		var again RunRequest
		if err := decodeJSON(bytes.NewReader(body), &again); err != nil {
			t.Fatalf("second decode failed: %v", err)
		}
		_, key2, err := s.resolve(again)
		if err != nil || key2 != key {
			t.Fatalf("second resolve: digest %s, err %v; want %s", key2, err, key)
		}
	})
}
