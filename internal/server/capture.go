package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"wats/internal/trace"
	"wats/internal/wire"
)

// Decision-ledger capture control: StartCapture attaches a rotating
// NDJSON trace.Capture sink to the runtime's tracer, StopCapture detaches
// it and seals the file with a footer. One capture at a time; the HTTP
// surface is POST /v1/trace/start and /v1/trace/stop, with status in
// /v1/healthz. watsd -capture starts one at boot through the same path.

// captureHeader builds the capture header from the live runtime: policy,
// architecture shape, helper cadence — everything the twin needs to
// rebuild the same machine.
func (s *Server) captureHeader() trace.CaptureHeader {
	arch := s.rt.BaseArch()
	h := trace.CaptureHeader{
		Policy:         string(s.rt.Strategy().Kind()),
		HelperPeriodNS: s.rt.HelperPeriod().Nanoseconds(),
		SpeedEmulation: s.rt.SpeedEmulation(),
		StartUnixNS:    time.Now().UnixNano(),
	}
	for _, g := range arch.Groups {
		h.GroupCounts = append(h.GroupCounts, g.N)
		h.GroupFreqs = append(h.GroupFreqs, g.Freq)
	}
	return h
}

// StartCapture begins streaming decision + lifecycle records to path.
// It fails when the runtime has no tracer (Config.Obs unset) or a capture
// is already running.
func (s *Server) StartCapture(cfg trace.CaptureConfig) (trace.CaptureStats, error) {
	tr := s.rt.Tracer()
	if tr == nil {
		return trace.CaptureStats{}, fmt.Errorf("runtime has no tracer; start watsd with observability on")
	}
	s.capMu.Lock()
	defer s.capMu.Unlock()
	if s.capture != nil {
		return trace.CaptureStats{}, fmt.Errorf("capture already running to %s", s.capture.Stats().Path)
	}
	if dir := filepath.Dir(cfg.Path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return trace.CaptureStats{}, err
		}
	}
	cap, err := trace.NewCapture(cfg, s.captureHeader())
	if err != nil {
		return trace.CaptureStats{}, err
	}
	s.capture = cap
	tr.SetLedger(cap)
	return cap.Stats(), nil
}

// StopCapture detaches the ledger sink, seals the capture file with a
// footer carrying the live run's totals, and returns the final stats.
func (s *Server) StopCapture() (trace.CaptureStats, error) {
	s.capMu.Lock()
	defer s.capMu.Unlock()
	if s.capture == nil {
		return trace.CaptureStats{}, fmt.Errorf("no capture running")
	}
	if tr := s.rt.Tracer(); tr != nil {
		tr.SetLedger(nil)
	}
	err := s.capture.Close(trace.CaptureFooter{
		EnergyJoules: s.rt.EnergyJoules(),
		TasksRun:     s.rt.TasksRun(),
	})
	stats := s.capture.Stats()
	s.capture = nil
	return stats, err
}

// CaptureStatus returns the running capture's stats, or nil when off —
// the /v1/healthz "capture" field.
func (s *Server) CaptureStatus() *trace.CaptureStats {
	s.capMu.Lock()
	defer s.capMu.Unlock()
	if s.capture == nil {
		return nil
	}
	st := s.capture.Stats()
	return &st
}

// captureStartRequest is the POST /v1/trace/start body. Path defaults to
// out/capture-<unix-nanos>.ndjson.
type captureStartRequest struct {
	Path     string `json:"path,omitempty"`
	MaxBytes int64  `json:"max_bytes,omitempty"`
	MaxFiles int    `json:"max_files,omitempty"`
}

func (s *Server) handleTraceStart(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req captureStartRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(wire.Bounded(w, r)).Decode(&req); err != nil {
			badBody(w, err)
			return
		}
	}
	if req.Path == "" {
		req.Path = filepath.Join("out", fmt.Sprintf("capture-%d.ndjson", time.Now().UnixNano()))
	}
	stats, err := s.StartCapture(trace.CaptureConfig{
		Path: req.Path, MaxBytes: req.MaxBytes, MaxFiles: req.MaxFiles,
	})
	if err != nil {
		httpError(w, http.StatusConflict, "trace start: %v", err)
		return
	}
	writeJSON(w, stats)
}

func (s *Server) handleTraceStop(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	stats, err := s.StopCapture()
	if err != nil {
		httpError(w, http.StatusConflict, "trace stop: %v", err)
		return
	}
	writeJSON(w, stats)
}
