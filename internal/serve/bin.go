package serve

// The binary classify endpoint: POST /v1/classify-bin speaks the
// length-prefixed frame protocol from wire.go instead of JSON. It
// exists for the hot path — a monitoring agent shipping thousands of
// event vectors per second — where JSON encode/decode dominates the
// actual tree walk. A vector frame is classified as one columnar batch
// through Detector.ClassifyVectors (the client formed the batch, so the
// server never waits for one), and verdicts are identical to the JSON
// endpoint's: same projection cache, same flat tree, same degraded
// semantics when suspects are flagged.
//
// Error handling is split by layer, on purpose: middleware rejections
// (shed 429, shutdown 503) stay JSON so the client's retry classifier
// is shared with the JSON path, while handler errors are rendered as
// binary error frames with the same HTTP status the JSON path would
// use. The client's one error decoder branches on Content-Type and
// folds both into APIError.

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"time"

	"fsml/internal/core"
)

// contentTypeBin is the frame protocol's media type.
const contentTypeBin = "application/octet-stream"

// handleClassifyBin serves POST /v1/classify-bin.
func (s *Server) handleClassifyBin(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	// Deferred so error responses land in the latency histogram too.
	defer func() { s.metrics.Observe(mRequestSec, latencyBuckets, time.Since(t0).Seconds()) }()
	s.metrics.Add(mReqClassifyBin, 1)
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes+8)
	frame, err := io.ReadAll(r.Body)
	if err != nil {
		s.writeBinError(w, badRequestf("classify-bin: reading frame: %v", err))
		return
	}
	req, err := DecodeBinRequest(frame)
	if err != nil {
		s.writeBinError(w, err)
		return
	}
	ctx, cancel := s.reqContext(r, 0)
	defer cancel()
	det, key, err := s.detector(ctx, req.Detector)
	if err != nil {
		s.writeBinError(w, err)
		return
	}
	resp, err := s.classifyBin(ctx, det, key, req)
	if err != nil {
		s.writeBinError(w, err)
		return
	}
	buf := getFrameBuf()
	defer putFrameBuf(buf)
	out, err := AppendBinResponse(*buf, resp)
	if err != nil {
		s.writeBinError(w, err)
		return
	}
	*buf = out // retain the grown capacity in the pool
	w.Header().Set("Content-Type", contentTypeBin)
	_, _ = w.Write(out)
}

// classifyBin dispatches a decoded frame: a trace frame goes through
// the classify pipeline exactly like a JSON trace request; a vector
// frame is classified as one columnar batch.
func (s *Server) classifyBin(ctx context.Context, det *core.Detector, key string, req *BinClassifyRequest) (*BinClassifyResponse, error) {
	if len(req.Trace) > 0 {
		resp, err := s.classify(ctx, det, key, &ClassifyRequest{Trace: req.Trace, Seed: req.Seed}, nil)
		if err != nil {
			return nil, err
		}
		return &BinClassifyResponse{
			Detector: key,
			Suspects: resp.Suspects,
			Verdicts: []BinVerdict{{Class: resp.Class, Confidence: resp.Confidence, Degraded: resp.Degraded, Seconds: resp.Seconds}},
		}, nil
	}

	n := req.NumVecs()
	if n == 0 {
		return nil, badRequestf("classify-bin: empty vector frame")
	}
	resp := &BinClassifyResponse{Detector: key, Verdicts: make([]BinVerdict, n)}
	degraded := false
	err := s.runStage(ctx, func() error {
		// Fast path: a clean frame against a tree detector runs columnar —
		// one projection, one flat-tree pass, interned verdict strings.
		// Each verdict is mirrored with the sample the per-vector path
		// would build; a server without the lifecycle loop skips that.
		if len(req.Suspects) == 0 && det.FlatTree() != nil {
			classes := make([]string, n)
			if err := det.ClassifyVectors(req.Events, req.Vecs, req.Width, classes); err != nil {
				return badRequestf("classify-bin: %v", err)
			}
			for i, c := range classes {
				resp.Verdicts[i] = BinVerdict{Class: c, Confidence: 1}
			}
			if s.lc != nil {
				for i, c := range classes {
					sample, err := vectorSample(det, req.Events, req.Vecs[i*req.Width:(i+1)*req.Width], nil)
					if err != nil {
						return err
					}
					s.lc.Mirror(key, c, 1, sample, nil)
				}
			}
			return nil
		}
		// Degraded or non-tree frames take the JSON endpoint's per-vector
		// sample and verdict steps, so suspect handling stays
		// semantically identical.
		for i := 0; i < n; i++ {
			sample, err := vectorSample(det, req.Events, req.Vecs[i*req.Width:(i+1)*req.Width], req.Suspects)
			if err != nil {
				return err
			}
			rr, err := s.verdict(det, key, measurement{sample: sample})
			if err != nil {
				return err
			}
			resp.Verdicts[i] = BinVerdict{Class: rr.Class, Confidence: rr.Confidence, Degraded: rr.Degraded}
			degraded = degraded || rr.Degraded
			if resp.Suspects == nil {
				resp.Suspects = rr.Suspects
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if degraded {
		s.metrics.Add(mDegraded, 1)
	}
	return resp, nil
}

// writeBinError renders a handler error as a binary error frame with
// the same HTTP status the JSON path would use.
func (s *Server) writeBinError(w http.ResponseWriter, err error) {
	s.metrics.Add(mReqErrors, 1)
	status, retryAfter := errorStatus(err)
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retryAfter)))
	}
	buf := getFrameBuf()
	defer putFrameBuf(buf)
	out := AppendBinError(*buf, status, err.Error())
	*buf = out
	w.Header().Set("Content-Type", contentTypeBin)
	w.WriteHeader(status)
	_, _ = w.Write(out)
}

// ---------------------------------------------------------------------------
// Client side

// ClassifyBinary posts one frame to /v1/classify-bin and decodes the
// response frame. Server-rendered errors — binary frames from the
// handler, JSON bodies from the admission middleware — both surface as
// *APIError, so the retry policy treats the binary path exactly like
// the JSON one (shed and shutdown responses retry for every verb).
//
// The request frame is a fresh slice per call, never a pooled buffer:
// net/http may still be writing the body after Do returns (the server
// can answer a shed or a 4xx before reading it), so a buffer handed
// back to a pool could be overwritten while it is on the wire.
func (c *Client) ClassifyBinary(ctx context.Context, req *BinClassifyRequest) (*BinClassifyResponse, error) {
	frame, err := AppendBinRequest(nil, req)
	if err != nil {
		return nil, err
	}
	var out *BinClassifyResponse
	err = c.do(ctx, http.MethodPost, "/v1/classify-bin", contentTypeBin, frame, func(httpResp *http.Response) error {
		blob, err := readBody(httpResp, maxBodyBytes+8)
		if err != nil {
			return err
		}
		resp, errFrame, err := DecodeBinResponse(blob)
		if err != nil {
			return err
		}
		if errFrame != nil {
			return &APIError{Status: errFrame.Status, Message: errFrame.Message}
		}
		out = resp
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
