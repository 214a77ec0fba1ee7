// Package httpjson holds the JSON request and response plumbing shared
// by the single-process server (package consensus) and the distributed
// coordinator and workers: one body bound, one error envelope, one
// error-to-status mapping.
package httpjson

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// MaxRequestBytes bounds a request body: the servers cap their outputs,
// so inputs must be bounded too or one oversized POST buffers gigabytes
// before validation runs.
const MaxRequestBytes = 8 << 20

// ErrorBody is the JSON error envelope.
type ErrorBody struct {
	Error string `json:"error"`
}

// Write writes v as the JSON body of a response with the given status.
// The body is encoded before the status is written, so a value JSON
// cannot carry is a 500, never a truncated 200.
func Write(w http.ResponseWriter, status int, v any) {
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(v); err != nil {
		body.Reset()
		status = http.StatusInternalServerError
		_ = json.NewEncoder(&body).Encode(ErrorBody{Error: err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body.Bytes())
}

// WriteError writes err in the error envelope with the given status.
func WriteError(w http.ResponseWriter, status int, err error) {
	Write(w, status, ErrorBody{Error: err.Error()})
}

// StatusOf maps a computation error to an HTTP status: 504 when it is
// (or wraps) a context deadline or cancellation, 400 otherwise.
func StatusOf(err error) int {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return http.StatusGatewayTimeout
	}
	return http.StatusBadRequest
}

// Decode strictly decodes the size-limited JSON request body into v:
// unknown fields and bodies past MaxRequestBytes are errors.
func Decode(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %v", err)
	}
	return nil
}
