package httpjson

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWriteEncodesBeforeStatus: an encodable value is written under its
// status with its encoding as the body; one JSON cannot carry is a 500
// with an error body, never a truncated 200.
func TestWriteEncodesBeforeStatus(t *testing.T) {
	rec := httptest.NewRecorder()
	Write(rec, http.StatusOK, map[string]string{"status": "ok"})
	if rec.Code != http.StatusOK || rec.Body.String() != "{\"status\":\"ok\"}\n" ||
		rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("status %d, body %q, content type %q", rec.Code, rec.Body, rec.Header().Get("Content-Type"))
	}

	rec = httptest.NewRecorder()
	Write(rec, http.StatusOK, math.Inf(1))
	var body ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusInternalServerError || err != nil || body.Error == "" {
		t.Errorf("status %d, body %q, want 500 with an error body", rec.Code, rec.Body)
	}
}

// TestStatusOfWrappedContextErrors: a context deadline or cancellation
// is a 504 however deeply it is wrapped; any other error is a 400.
func TestStatusOfWrappedContextErrors(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{fmt.Errorf("valency: %w", context.DeadlineExceeded), http.StatusGatewayTimeout},
		{fmt.Errorf("sweep: %w", fmt.Errorf("spec 3: %w", context.Canceled)), http.StatusGatewayTimeout},
		{fmt.Errorf("consensus: unknown model"), http.StatusBadRequest},
	} {
		if got := StatusOf(tc.err); got != tc.want {
			t.Errorf("StatusOf(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestDecodeIsStrictAndBounded: unknown fields and bodies past
// MaxRequestBytes are errors.
func TestDecodeIsStrictAndBounded(t *testing.T) {
	var v struct {
		Model string `json:"model"`
	}
	for _, body := range []string{
		`{"model":"deaf:3","extra":1}`,
		`{"model":"` + strings.Repeat("x", MaxRequestBytes) + `"}`,
	} {
		r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body))
		if err := Decode(httptest.NewRecorder(), r, &v); err == nil {
			t.Errorf("body of %d bytes accepted", len(body))
		}
	}
	r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(`{"model":"deaf:3"}`))
	if err := Decode(httptest.NewRecorder(), r, &v); err != nil || v.Model != "deaf:3" {
		t.Errorf("Decode = %v, model %q", err, v.Model)
	}
}
