package pfs

import (
	"fmt"
	"sort"

	"redbud/internal/inode"
)

// CheckExtentCache compares every extent count the mount would answer from
// its cache — each entry that still holds for its component's current
// bookReplica pick — with the count the booked server itself holds. The
// server is read host-side, not over RPC, so checking moves no fault draw
// and no counter. It returns how many entries it checked and the first
// mismatch.
func (fs *FS) CheckExtentCache() (int, error) {
	inos := make([]inode.Ino, 0, len(fs.files))
	for ino := range fs.files {
		inos = append(inos, ino)
	}
	sort.Slice(inos, func(i, j int) bool { return inos[i] < inos[j] })
	checked := 0
	for _, ino := range inos {
		f := fs.files[ino]
		for c := range f.objects {
			r, obj, ok := fs.bookReplica(f, c)
			if !ok {
				continue
			}
			n, ok := fs.cachedCount(f, c, r)
			if !ok {
				continue
			}
			checked++
			want, err := fs.osts[r].ExtentCount(obj)
			if err != nil {
				return checked, fmt.Errorf("ino %d comp %d: cached %d from ost%d, which has no object %d: %v",
					ino, c, n, r, obj, err)
			}
			if n != want {
				return checked, fmt.Errorf("ino %d comp %d: cached %d extents from ost%d, which holds %d",
					ino, c, n, r, want)
			}
		}
	}
	return checked, nil
}
