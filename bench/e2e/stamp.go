package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// stamp says where and how a run was taken; it heads every output.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Traced     bool    `json:"traced"`
	Nproc      int     `json:"nproc"`
	Gomaxprocs int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Kernel     string  `json:"kernel"`
	TmpFS      string  `json:"tmp_fs"`
	Ops        int     `json:"ops_in_list"`
	PreludeOps int     `json:"prelude_ops"`
	Segments   int     `json:"segments"`
	SegmentOps int     `json:"ops_per_segment"`
}

func (s stamp) line() string {
	return fmt.Sprintf("workload=%s seed=%d seconds=%g scale=%g traced=%v nproc=%d GOMAXPROCS=%d clients=%d go=%s commit=%s kernel=%s tmpfs=%s ops_in_list=%d prelude_ops=%d segments=%d ops_per_segment=%d",
		s.Workload, s.Seed, s.Seconds, s.Scale, s.Traced, s.Nproc, s.Gomaxprocs, s.Clients, s.GoVersion, s.Commit, s.Kernel, s.TmpFS, s.Ops, s.PreludeOps, s.Segments, s.SegmentOps)
}

// hostStamp fills the host part of the stamp. dir is where the run's
// data directories live; its filesystem decides what an fsync costs.
func hostStamp(dir string) stamp {
	s := stamp{
		Nproc:      runtime.NumCPU(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		Clients:    1, // the harness has exactly one client goroutine, which is never more than nproc
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Kernel:     "unknown",
		TmpFS:      fsName(dir),
	}
	// The driver's checkout is not a git repository; a developer's is.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		s.Kernel = strings.TrimSpace(string(b))
	}
	return s
}

// fsName names the filesystem holding dir from its statfs magic.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
