package forum

import (
	"sort"
	"sync"
)

// timeline is the chronological, append-only post list behind the servers
// whose APIs name posts by ID: Twitter's since_id and media keys, Reddit's
// after and image links, Smishtank's screenshot links. byID maps each ID to
// the position of its first post, so resolving an ID costs the same however
// long the timeline has grown. Posts may be appended while the server is
// live, so all access goes through the read-write lock.
type timeline struct {
	mu    sync.RWMutex
	posts []post // sorted by CreatedAt; Append only adds at the tail
	byID  map[string]int
}

// Append publishes new posts at the tail of the timeline. Batches must be
// chronologically at-or-after the existing posts (SplitFixtures and Rebase
// guarantee this): since_id, after and pagination positions are
// index-based, so inserting in the middle would corrupt live cursors.
func (t *timeline) Append(posts []post) {
	batch := make([]post, len(posts))
	copy(batch, posts)
	sort.SliceStable(batch, func(i, j int) bool { return batch[i].CreatedAt.Before(batch[j].CreatedAt) })
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.byID == nil {
		t.byID = make(map[string]int, len(batch))
	}
	for i, p := range batch {
		if _, dup := t.byID[p.ID]; !dup {
			t.byID[p.ID] = len(t.posts) + i
		}
	}
	t.posts = append(t.posts, batch...)
}

// startAfter returns the position just past the first post with the given
// ID, or 0 when no post has it: an unknown resume point restarts from the
// beginning. The caller holds the read lock.
func (t *timeline) startAfter(id string) int {
	if i, ok := t.byID[id]; ok {
		return i + 1
	}
	return 0
}

// attachment returns the attachment of the first post with the given ID,
// nil when there is no such post. The caller holds the read lock.
func (t *timeline) attachment(id string) []byte {
	if i, ok := t.byID[id]; ok {
		return t.posts[i].Attachment
	}
	return nil
}
