package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildServer compiles cmd/twsimd from the checkout rooted at root into
// buildDir and returns the binary's path. The go build cache makes every
// build after the first a relink.
func buildServer(root, buildDir string) (string, error) {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return "", fmt.Errorf("run from the repository root: %w", err)
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "twsimd")); err != nil {
		return "", fmt.Errorf("the server's source is not in this checkout: %w", err)
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "twsimd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/twsimd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/twsimd: %w\n%s", err, out)
	}
	return bin, nil
}

// twsimd is one running server process.
type twsimd struct {
	cmd     *exec.Cmd
	baseURL string
	started time.Time // just before the process was spawned

	mu      sync.Mutex
	logTail bytes.Buffer  // the process's stderr, for error reports
	done    chan struct{} // closed when stderr hits EOF
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startServer spawns bin with the given flags on an ephemeral port and
// waits for the "listening on" log line, the only way to learn the port.
// Cancelling ctx kills the process, so an interrupted benchmark leaves no
// server behind.
func startServer(ctx context.Context, bin string, args ...string) (*twsimd, error) {
	s := &twsimd{done: make(chan struct{})}
	s.cmd = exec.CommandContext(ctx, bin, append(args, "-addr", "127.0.0.1:0")...)
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	addrCh := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			if s.logTail.Len() < 64<<10 {
				s.logTail.WriteString(line + "\n")
			}
			s.mu.Unlock()
			if m := listenRE.FindStringSubmatch(line); m != nil && !strings.Contains(line, "pprof") {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		s.baseURL = "http://" + addr
		return s, nil
	case <-s.done:
		_ = s.cmd.Wait()
		return nil, fmt.Errorf("twsimd exited before listening:\n%s", s.log())
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, fmt.Errorf("twsimd did not report a listen address within 60s:\n%s", s.log())
	}
}

func (s *twsimd) pid() int { return s.cmd.Process.Pid }

func (s *twsimd) log() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.logTail.String()
}

// stop asks for a clean shutdown (SIGTERM flushes and closes the database)
// and waits for the process to end.
func (s *twsimd) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	<-s.done
	if err := s.cmd.Wait(); err != nil {
		return fmt.Errorf("twsimd shutdown: %w\n%s", err, s.log())
	}
	return nil
}

// kill is kill -9: no flush, no close. It waits for the process to end.
func (s *twsimd) kill() {
	_ = s.cmd.Process.Kill()
	<-s.done
	_ = s.cmd.Wait()
}
