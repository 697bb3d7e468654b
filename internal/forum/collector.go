package forum

import (
	"context"
	"fmt"
	"sync"

	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/netutil"
)

// ctxType keeps collector signatures compact.
type ctxType = context.Context

// Collector is one forum's collection client. Collect streams every report
// into sink; returning an error from sink aborts the run.
type Collector interface {
	Name() corpus.Forum
	Collect(ctx context.Context, sink func(RawReport) error) error
}

// CollectAll drains every collector sequentially (the paper's collectors
// ran as independent jobs; sequential keeps per-forum rate limits simple)
// and returns all reports plus per-forum counts.
func CollectAll(ctx context.Context, collectors []Collector) ([]RawReport, map[corpus.Forum]int, error) {
	var all []RawReport
	counts := make(map[corpus.Forum]int)
	for _, c := range collectors {
		err := c.Collect(ctx, func(r RawReport) error {
			all = append(all, r)
			counts[c.Name()]++
			return nil
		})
		if err != nil {
			return all, counts, fmt.Errorf("forum: collect %s: %w", c.Name(), err)
		}
	}
	return all, counts, nil
}

// maxAttachmentFetches bounds how many attachment downloads one page keeps
// in flight.
const maxAttachmentFetches = 4

// fetchAttachments downloads one page's attachments, at most
// maxAttachmentFetches at a time. paths[i] is report i's attachment path
// ("" when it has none) and its bytes land in slot i of the result, so the
// caller sinks the page's reports in page order whatever order the
// downloads finish in. A download that fails in the concurrent pass gets
// one more try afterwards, one at a time: a server shedding load
// (429/5xx) under the page's burst then sees a single request. Only a
// second failure fails the page; the error comes with the lowest failing
// index.
func fetchAttachments(ctx context.Context, api *netutil.Client, paths []string) ([][]byte, int, error) {
	out := make([][]byte, len(paths))
	errs := make([]error, len(paths))
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxAttachmentFetches)
	for i, path := range paths {
		if path == "" {
			continue
		}
		sem <- struct{}{} // freed by each download as it ends
		wg.Add(1)
		go func(i int, path string) {
			defer wg.Done()
			out[i], errs[i] = api.GetBytes(ctx, path)
			<-sem
		}(i, path)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			continue
		}
		if out[i], err = api.GetBytes(ctx, paths[i]); err != nil {
			return nil, i, err
		}
	}
	return out, 0, nil
}
