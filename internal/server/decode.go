package server

import (
	"bytes"
	"encoding/json"
	"strconv"
)

// decodeGenerate decodes a POST /v1/generate body. A body in the canonical
// shape is decoded in place by decodeCanonical; every other body goes to
// json.Unmarshal, so each body is accepted or refused, and with the same
// error, exactly as json.Unmarshal alone would.
func decodeGenerate(raw []byte) (generateRequest, error) {
	if body, ok := decodeCanonical(raw); ok {
		return body, nil
	}
	// Only this variable escapes into Unmarshal, so only a body off the
	// canonical path pays for a heap copy of the struct. Unmarshal, unlike
	// a Decoder, also refuses anything after the object.
	var body generateRequest
	err := json.Unmarshal(raw, &body)
	return body, err
}

// maxCanonicalDigits bounds the digits of a canonical integer so that every
// one of them fits an int: 18 on 64-bit platforms, 9 on 32-bit ones.
const maxCanonicalDigits = strconv.IntSize * 9 / 32

// decodeCanonical decodes a body of the canonical shape: one object whose
// keys are generateRequest's four JSON names in exact case and without
// escapes, in any order and any number of times (the last wins, as in
// encoding/json); integers of at most maxCanonicalDigits digits with an
// optional minus sign and no leading zero; true or false for stream; and
// JSON whitespace between tokens and around the object. It reports false for
// any other body, which then goes to json.Unmarshal; what it accepts,
// json.Unmarshal accepts with the same result (FuzzDecodeGenerate).
func decodeCanonical(b []byte) (body generateRequest, ok bool) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return body, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return body, skipSpace(b, i+1) == len(b)
	}
	for {
		if i == len(b) || b[i] != '"' {
			return body, false
		}
		n := bytes.IndexByte(b[i+1:], '"')
		if n < 0 {
			return body, false
		}
		key := b[i+1 : i+1+n]
		i = skipSpace(b, i+2+n)
		if i == len(b) || b[i] != ':' {
			return body, false
		}
		i = skipSpace(b, i+1)
		switch string(key) {
		case "input_tokens":
			body.InputTokens, i, ok = canonicalInt(b, i)
		case "max_new_tokens":
			body.MaxNewTokens, i, ok = canonicalInt(b, i)
		case "output_tokens":
			body.OutputTokens, i, ok = canonicalInt(b, i)
		case "stream":
			body.Stream, i, ok = canonicalBool(b, i)
		default:
			ok = false
		}
		if !ok {
			return body, false
		}
		i = skipSpace(b, i)
		if i == len(b) {
			return body, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return body, skipSpace(b, i+1) == len(b)
		default:
			return body, false
		}
	}
}

// canonicalInt reads an integer at b[i:]: an optional minus sign, then 0 or
// a digit from 1 to 9 followed by digits, at most maxCanonicalDigits in all.
// A fraction or an exponent after it is left unread, for the caller to
// refuse as the wrong next byte.
func canonicalInt(b []byte, i int) (v, next int, ok bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		v = v*10 + int(b[i]-'0')
	}
	if n := i - start; n == 0 || n > maxCanonicalDigits || (n > 1 && b[start] == '0') {
		return 0, i, false
	}
	if neg {
		v = -v
	}
	return v, i, true
}

// canonicalBool reads true or false at b[i:].
func canonicalBool(b []byte, i int) (v bool, next int, ok bool) {
	switch {
	case bytes.HasPrefix(b[i:], []byte("true")):
		return true, i + 4, true
	case bytes.HasPrefix(b[i:], []byte("false")):
		return false, i + 5, true
	}
	return false, i, false
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}
