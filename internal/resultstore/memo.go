package resultstore

import (
	"bytes"
	"encoding"
	"encoding/gob"
	"encoding/json"
	"fmt"
)

// Encoding is how a record payload of type T is written and read back.
// Name labels the record header ("json", "gob", "bin"); it does not affect
// addressing.
type Encoding[T any] struct {
	Name   string
	Encode func(T) ([]byte, error)
	Decode func([]byte) (T, error)
}

// JSON encodes records with encoding/json.
func JSON[T any]() Encoding[T] {
	return Encoding[T]{
		Name:   "json",
		Encode: func(v T) ([]byte, error) { return json.Marshal(v) },
		Decode: func(b []byte) (v T, err error) { return v, json.Unmarshal(b, &v) },
	}
}

// Gob encodes records with encoding/gob, which preserves float64 values
// bitwise where JSON formatting cannot guarantee it for NaN/Inf, so golden
// outputs use it.
func Gob[T any]() Encoding[T] {
	return Encoding[T]{
		Name: "gob",
		Encode: func(v T) ([]byte, error) {
			var buf bytes.Buffer
			err := gob.NewEncoder(&buf).Encode(v)
			return buf.Bytes(), err
		},
		Decode: func(b []byte) (v T, err error) {
			return v, gob.NewDecoder(bytes.NewReader(b)).Decode(&v)
		},
	}
}

// Binary encodes records of type *T through T's own MarshalBinary and
// UnmarshalBinary (trained entropy tables).
func Binary[T any, P interface {
	*T
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}]() Encoding[P] {
	return Encoding[P]{
		Name:   "bin",
		Encode: func(v P) ([]byte, error) { return v.MarshalBinary() },
		Decode: func(b []byte) (P, error) {
			v := P(new(T))
			return v, v.UnmarshalBinary(b)
		},
	}
}

// Get reads and decodes the record at k; ok reports a valid hit. A record
// that is intact but does not decode (schema drift under the current types)
// is dropped and counted as a miss and a bad record, so the caller's
// recompute rewrites it.
func Get[T any](s *Store, k Key, enc Encoding[T]) (v T, ok bool, err error) {
	payload, ok, err := s.get(k)
	if err != nil || !ok {
		return v, false, err
	}
	if v, err = enc.Decode(payload); err != nil {
		s.decodeFailed(k)
		var zero T
		return zero, false, nil
	}
	s.hit(k)
	return v, true, nil
}

// Put encodes v and writes it as a record of the given kind.
func Put[T any](s *Store, k Key, kind string, enc Encoding[T], v T) error {
	payload, err := enc.Encode(v)
	if err != nil {
		return fmt.Errorf("resultstore: encoding %s record: %w", kind, err)
	}
	return s.PutBytes(k, kind, enc.Name, payload)
}

// Memo resolves one memoised value through the store: key the material,
// return a decodable hit, otherwise compute and write the result back. The
// write-back is best-effort — a full disk must not fail a computation that
// just succeeded — so keying and write failures go to logf (which must be
// non-nil) instead of the caller. A nil store just computes.
func Memo[T any](s *Store, kind string, m Material, enc Encoding[T], logf func(format string, args ...any), compute func() (T, error)) (T, error) {
	if s == nil {
		return compute()
	}
	k, err := s.Key(kind, m)
	if err != nil {
		logf("store: keying %s failed: %v", kind, err)
		return compute()
	}
	if v, ok, err := Get(s, k, enc); err != nil {
		return v, fmt.Errorf("store: %s record: %w", kind, err)
	} else if ok {
		return v, nil
	}
	v, err := compute()
	if err != nil {
		return v, err
	}
	if err := Put(s, k, kind, enc, v); err != nil {
		logf("store: writing %s record failed: %v", kind, err)
	}
	return v, nil
}
