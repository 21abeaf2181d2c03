package server

import stdruntime "runtime"

// version and commit identify a deployed binary. They are overridden at
// link time:
//
//	go build -ldflags "-X wats/internal/server.version=v1.2.3 \
//	                   -X wats/internal/server.commit=$(git rev-parse --short HEAD)"
var (
	version = "dev"
	commit  = "unknown"
)

// BuildInfo identifies the running binary; served at GET /v1/version and
// logged at watsd startup.
type BuildInfo struct {
	Version   string `json:"version"`
	Commit    string `json:"commit"`
	GoVersion string `json:"go_version"`
}

// Build returns the binary's build identification.
func Build() BuildInfo {
	return BuildInfo{Version: version, Commit: commit, GoVersion: stdruntime.Version()}
}
