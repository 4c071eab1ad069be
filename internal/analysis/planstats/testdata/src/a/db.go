package a

// deleteWhere stands in for a statement path in db.go: UPDATE and DELETE
// are planned like SELECT, so db.go is not on the allowlist and a direct
// scan there is the shortcut the invariant forbids.
func deleteWhere(t *Table, match func(row int) bool) []int64 {
	var ids []int64
	t.Scan(func(id int64, row int) bool { // want `direct Table.Scan outside plan execution`
		if match(row) {
			ids = append(ids, id)
		}
		return true
	})
	return ids
}
