package store

// String-keyed conveniences for the tests: each is a thin wrapper over the one
// entry point the server calls for that verb, so the tests exercise the same
// read and write bodies the daemon runs. They take a Store or the reference
// the differential tests hold it to (verbCache).

// getItem reads key through GetItemView and returns an owned copy of the
// record (the returned view holds no pin and needs no Release).
func getItem(s verbCache, tenant, key string) (ItemView, bool, error) {
	v, ok, err := s.GetItemView(tenant, []byte(key))
	out := ItemView{Value: append([]byte(nil), v.Value...), Flags: v.Flags, CAS: v.CAS}
	v.Release()
	return out, ok, err
}

func get(s verbCache, tenant, key string) ([]byte, bool, error) {
	it, ok, err := getItem(s, tenant, key)
	return it.Value, ok, err
}

func setItem(s verbCache, tenant, key string, value []byte, flags uint32, exptime int64) error {
	return s.SetItemBytes(tenant, []byte(key), value, flags, exptime)
}

func set(s verbCache, tenant, key string, value []byte) error {
	return setItem(s, tenant, key, value, 0, 0)
}

// appendTo is append (front false) or prepend (front true).
func appendTo(s verbCache, tenant, key string, extra []byte, front bool) (bool, error) {
	if front {
		return s.PrependBytes(tenant, []byte(key), extra)
	}
	return s.AppendBytes(tenant, []byte(key), extra)
}
