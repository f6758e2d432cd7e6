// Package hdfs simulates the Hadoop Distributed File System layer the
// paper's systems store their tables in. It records each file's path
// and logical size — what the paper's Table 1 reports — and the
// replication factor writers price their writes at: HDFS stores every
// byte Replication times.
package hdfs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Replication is HDFS's default block replication factor. A deployment
// with fewer data nodes stores one copy per node.
const Replication = 3

// Config describes the simulated HDFS deployment.
type Config struct {
	// DataNodes is the number of storage nodes (the paper's cluster has
	// 10 machines; HDFS runs on all of them).
	DataNodes int
}

// FS is the simulated filesystem. It is safe for concurrent use.
type FS struct {
	replication int
	mu          sync.RWMutex
	files       map[string]int64 // path → logical size
}

// New returns an empty filesystem.
func New(cfg Config) (*FS, error) {
	if cfg.DataNodes <= 0 {
		return nil, fmt.Errorf("hdfs: DataNodes must be positive, got %d", cfg.DataNodes)
	}
	return &FS{replication: min(Replication, cfg.DataNodes), files: make(map[string]int64)}, nil
}

// Replication returns the number of copies a written byte is stored as:
// Replication, capped at the number of data nodes.
func (fs *FS) Replication() int { return fs.replication }

// Write stores a file of the given logical size. Writing an existing
// path overwrites it.
func (fs *FS) Write(path string, size int64) error {
	if path == "" || !strings.HasPrefix(path, "/") {
		return fmt.Errorf("hdfs: path %q must be absolute", path)
	}
	if size < 0 {
		return fmt.Errorf("hdfs: negative size %d for %q", size, path)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files[path] = size
	return nil
}

// Delete removes a file.
func (fs *FS) Delete(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[path]; !ok {
		return fmt.Errorf("hdfs: no such file %q", path)
	}
	delete(fs.files, path)
	return nil
}

// ListPrefix returns the stored paths with the given prefix, sorted.
func (fs *FS) ListPrefix(prefix string) []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var out []string
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// LogicalBytes returns the sum of file sizes under a prefix — the number
// Table 1 reports ("Size" of each system's database).
func (fs *FS) LogicalBytes(prefix string) int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var total int64
	for p, size := range fs.files {
		if strings.HasPrefix(p, prefix) {
			total += size
		}
	}
	return total
}
