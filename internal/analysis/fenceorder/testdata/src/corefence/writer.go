package core

// badWrite advertises the writer before publishing its clock (F2;
// multi-file case: the lock shape lives in order.go).
func (l *lock) badWrite(end uint64) {
	l.e.Store(l.stateAddr(0), stateWriter) // want `a path reaches this stateWriter advertise without storing the writer clock`
	l.e.Store(l.clockWAddr(0), end)
}

// goodWrite is the documented ReaderSync advertise order.
func (l *lock) goodWrite(end uint64) {
	l.e.Store(l.clockWAddr(0), end)
	l.e.Store(l.stateAddr(0), stateWriter)
}

// badRegister registers under the versioned SGL without validating the
// lock version afterwards (unsafe lazy subscription, F4).
func (l *lock) badRegister(observed uint64) {
	l.e.Store(l.readerVerAddr(0), observed+1) // want `a path from this readerVer registration reaches return without a glVer validation load`
	l.wakes.Wake(l.readerVerAddr(0))
}

// goodRegister validates and wakes after registering, like the real
// flagReaderAndSyncGL.
func (l *lock) goodRegister(observed uint64) {
	l.e.Store(l.readerVerAddr(0), observed+1)
	l.wakes.Wake(l.readerVerAddr(0))
	_ = l.e.Load(l.glVer)
}
