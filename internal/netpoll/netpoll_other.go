//go:build !linux

package netpoll

import "errors"

func newPlatformPoller(func(uint64)) (Poller, error) {
	return nil, errors.ErrUnsupported
}
