package distributed

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// maxRequestBytes bounds any JSON request body this package decodes,
// matching the single-process server's input bound.
const maxRequestBytes = 8 << 20

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// statusOf maps a computation error to an HTTP status, mirroring the
// single-process server.
func statusOf(err error) int {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return http.StatusGatewayTimeout
	}
	return http.StatusBadRequest
}

// decodeBody strictly decodes the size-limited JSON request body into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("distributed: bad request body: %v", err)
	}
	return nil
}
