package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// The job event stream's text/event-stream codec, shared by ebmfd (which
// writes it), ebmfgw (which relays it) and `ebmf -server` (which reads it).
// Every frame is three lines and a blank line:
//
//	id: <seq>
//	event: <status|progress|done>
//	data: <JobEvent as JSON>

// WriteEvent writes ev as one frame in one Write: the sequence number as id
// (clients resume with Last-Event-ID), the event name from the payload
// (done for a terminal snapshot, progress for a solver sample, status
// otherwise), the JSON as data.
func WriteEvent(w io.Writer, ev *JobEvent) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	name := EventStatus
	switch {
	case ev.Job != nil:
		name = EventDone
	case ev.Progress != nil:
		name = EventProgress
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, name, data)
	return err
}

// ErrFrameTooLarge reports a frame longer than the reader's cap.
var ErrFrameTooLarge = errors.New("wire: event frame over the size cap")

// Frame is one whole frame read from an event stream. Raw and Data alias
// the reader's buffer and are valid until the next call to Next.
type Frame struct {
	Raw   []byte // the frame's bytes, through its closing blank line
	ID    string
	Event string
	Data  []byte // the data line's value; the last one if there are several
}

// EventReader reads the frames of an event stream, holding at most one
// frame of at most max bytes.
type EventReader struct {
	br  *bufio.Reader
	max int
	buf []byte
}

// NewEventReader returns a reader of the frames on r that refuses any frame
// longer than max bytes.
func NewEventReader(r io.Reader, max int) *EventReader {
	return &EventReader{br: bufio.NewReader(r), max: max}
}

// Next returns the next frame that carries a data line; frames without one
// (comments, keep-alives) are skipped. The error is io.EOF when the stream
// ends between frames, io.ErrUnexpectedEOF when it ends inside one (the
// partial frame is dropped), ErrFrameTooLarge for a frame over the cap, or
// the read error. The reader is spent after any error.
func (r *EventReader) Next() (Frame, error) {
	var f Frame
	r.buf = r.buf[:0]
	for hasData := false; ; {
		start := len(r.buf)
		var err error
		for err = bufio.ErrBufferFull; err == bufio.ErrBufferFull; { // one line
			var chunk []byte
			chunk, err = r.br.ReadSlice('\n')
			if len(r.buf)+len(chunk) > r.max {
				return Frame{}, ErrFrameTooLarge
			}
			r.buf = append(r.buf, chunk...)
		}
		if err == io.EOF && len(r.buf) > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return Frame{}, err
		}
		line := bytes.TrimSuffix(r.buf[start:len(r.buf)-1], []byte("\r"))
		if len(line) == 0 {
			if hasData {
				f.Raw = r.buf
				return f, nil
			}
			f, r.buf = Frame{}, r.buf[:0]
			continue
		}
		name, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimPrefix(value, []byte(" "))
		switch string(name) {
		case "id":
			f.ID = string(value)
		case "event":
			f.Event = string(value)
		case "data":
			f.Data, hasData = value, true
		}
	}
}
