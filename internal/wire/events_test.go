package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/obs"
	"repro/internal/rect"
)

// goldenEvents are one status, one progress and one done event, and
// goldenFrames the bytes ebmfd's SSE writer wrote for them before the codec
// moved into this package (recorded from that writer, not from WriteEvent).
// The done frame pins encoding/json's HTML escaping and omitted fields.
var goldenEvents = []JobEvent{
	{API: V1, Seq: 1, State: JobQueued},
	{API: V1, Seq: 2, State: JobRunning, Progress: &obs.ProgressJSON{
		TUS: 1760889600123456, Block: 1, Bound: 8, LB: 6, Conflicts: 1234,
		Restarts: 3, Propagations: 56789, Learnts: 210}},
	{API: V1, Seq: 3, State: JobDone, Job: &JobJSON{
		API: V1, ID: "j-00c0ffee00c0ffee", State: JobDone, Tenant: "acme<&>",
		QueuedMS: 1, RunMS: 12, Recovered: true,
		Result: &ResultJSON{
			API: V1, Depth: 2, Optimal: true, Certificate: "fooling-set",
			RankLB: 2, FoolingLB: 2, HeuristicDepth: 2, Blocks: 1,
			PackNS: 12345, Fingerprint: "9f86d081884c7d65",
			Partition: []rect.Indices{{Rows: []int{0, 2}, Cols: []int{0, 2}}, {Rows: []int{1}, Cols: []int{1, 3}}},
		}}},
}

var goldenFrames = []string{
	"id: 1\nevent: status\ndata: {\"api\":1,\"seq\":1,\"state\":\"queued\"}\n\n",
	"id: 2\nevent: progress\ndata: {\"api\":1,\"seq\":2,\"state\":\"running\",\"progress\":{\"t_us\":1760889600123456,\"block\":1,\"bound\":8,\"lb\":6,\"conflicts\":1234,\"restarts\":3,\"propagations\":56789,\"learnts\":210}}\n\n",
	"id: 3\nevent: done\ndata: {\"api\":1,\"seq\":3,\"state\":\"done\",\"job\":{\"api\":1,\"id\":\"j-00c0ffee00c0ffee\",\"state\":\"done\",\"tenant\":\"acme\\u003c\\u0026\\u003e\",\"queued_ms\":1,\"run_ms\":12,\"result\":{\"api\":1,\"depth\":2,\"optimal\":true,\"certificate\":\"fooling-set\",\"rank_lb\":2,\"fooling_lb\":2,\"heuristic_depth\":2,\"blocks\":1,\"cache_hit\":false,\"sat_calls\":0,\"conflicts\":0,\"pack_ns\":12345,\"sat_ns\":0,\"fingerprint\":\"9f86d081884c7d65\",\"partition\":[{\"rows\":[0,2],\"cols\":[0,2]},{\"rows\":[1],\"cols\":[1,3]}]},\"recovered\":true}}\n\n",
}

func TestWriteEventGolden(t *testing.T) {
	for i := range goldenEvents {
		var buf bytes.Buffer
		if err := WriteEvent(&buf, &goldenEvents[i]); err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != goldenFrames[i] {
			t.Errorf("frame %d:\n got %q\nwant %q", i, got, goldenFrames[i])
		}
	}
}

// readAllFrames reads s at cap max and returns the frames' raw bytes and
// the error that ended the stream.
func readAllFrames(s string, max int) ([]string, error) {
	rd := NewEventReader(strings.NewReader(s), max)
	var raws []string
	for {
		f, err := rd.Next()
		if err != nil {
			return raws, err
		}
		raws = append(raws, string(f.Raw))
	}
}

func TestEventReader(t *testing.T) {
	stream := strings.Join(goldenFrames, "")
	for _, tc := range []struct {
		name   string
		in     string
		max    int
		frames int
		err    error
	}{
		{"whole stream", stream, 1 << 20, 3, io.EOF},
		{"empty", "", 16, 0, io.EOF},
		{"blank lines and comments only", "\n\n: keep-alive\n\n", 64, 0, io.EOF},
		{"torn inside the done frame's data", stream[:len(stream)-40], 1 << 20, 2, io.ErrUnexpectedEOF},
		{"torn before the closing blank line", stream[:len(stream)-1], 1 << 20, 2, io.ErrUnexpectedEOF},
		{"frame exactly at the cap", goldenFrames[0], len(goldenFrames[0]), 1, io.EOF},
		{"frame one byte over the cap", goldenFrames[0], len(goldenFrames[0]) - 1, 0, ErrFrameTooLarge},
		{"line longer than the bufio buffer", "data: " + strings.Repeat("x", 10000) + "\n\n", 1 << 20, 1, io.EOF},
		{"long line over the cap", "data: " + strings.Repeat("x", 10000) + "\n\n", 5000, 0, ErrFrameTooLarge},
		{"CRLF line ends", "id: 1\r\ndata: {}\r\n\r\n", 64, 1, io.EOF},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raws, err := readAllFrames(tc.in, tc.max)
			if len(raws) != tc.frames || !errors.Is(err, tc.err) {
				t.Fatalf("%d frames, err %v; want %d frames, err %v", len(raws), err, tc.frames, tc.err)
			}
		})
	}

	// Fields: id and event as written, the data line's value without the
	// single space after the colon, and the raw bytes through the blank line.
	rd := NewEventReader(strings.NewReader(": hi\nid: 7\nevent:done\ndata:  {}\nretry: 5\n\n"), 64)
	f, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "7" || f.Event != EventDone || string(f.Data) != " {}" || !bytes.HasSuffix(f.Raw, []byte("retry: 5\n\n")) {
		t.Fatalf("frame %+v", f)
	}
}

// FuzzEventStream checks the event codec on arbitrary bytes. The reader
// never panics, and every frame it returns is within its cap, lies in the
// input after the previous frame, and ends with the blank line that closed
// it there, so no frame is one the input ended inside. Every JobEvent the
// writer writes (decoded from the input, or carrying the input as strings)
// reads back as one frame with the writer's id, name and data, and decodes
// to the event encoding/json makes of that data. Runs nightly (nightly.yml).
func FuzzEventStream(f *testing.F) {
	for _, s := range goldenFrames {
		f.Add([]byte(s))
	}
	f.Add([]byte(strings.Join(goldenFrames, "")))
	stream := strings.Join(goldenFrames, "")
	f.Add([]byte(stream[:len(stream)-40]))
	f.Add([]byte("\r\n: c\n\nid: 1\r\ndata:x\r\n\r\ndata: y"))
	for _, ev := range goldenEvents {
		data, _ := json.Marshal(ev)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, max := range []int{1, 40, 400, 1 << 16} {
			rd := NewEventReader(bytes.NewReader(in), max)
			pos := 0
			for {
				fr, err := rd.Next()
				if err != nil {
					break
				}
				if len(fr.Raw) > max {
					t.Fatalf("cap %d: frame of %d bytes", max, len(fr.Raw))
				}
				if !bytes.HasSuffix(fr.Raw, []byte("\n\n")) && !bytes.HasSuffix(fr.Raw, []byte("\n\r\n")) {
					t.Fatalf("cap %d: frame without its closing blank line: %q", max, fr.Raw)
				}
				k := bytes.Index(in[pos:], fr.Raw)
				if k < 0 {
					t.Fatalf("cap %d: frame %q is not in the input after offset %d", max, fr.Raw, pos)
				}
				pos += k + len(fr.Raw)
			}
		}

		var ev JobEvent
		if json.Unmarshal(in, &ev) == nil {
			roundTripEvent(t, &ev, false)
		}
		// Strings survive JSON exactly when they are valid UTF-8.
		s, exact := string(in), utf8.Valid(in)
		roundTripEvent(t, &JobEvent{Seq: int64(len(in)), State: s}, exact)
		roundTripEvent(t, &JobEvent{Seq: -1, State: s, Progress: &obs.ProgressJSON{Block: len(in)}}, exact)
		roundTripEvent(t, &JobEvent{Seq: 1 << 40, State: JobFailed, Job: &JobJSON{ID: s, State: JobFailed, Error: s}}, exact)
	})
}

// roundTripEvent writes ev and reads it back as exactly one frame. The
// frame's data must decode to ev itself when exact is set, and otherwise to
// what encoding/json decodes from the written JSON (an empty map under
// omitempty, say, comes back nil).
func roundTripEvent(t *testing.T, ev *JobEvent, exact bool) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteEvent(&buf, ev); err != nil {
		t.Fatal(err)
	}
	data, _ := json.Marshal(ev)
	name := EventStatus
	if ev.Job != nil {
		name = EventDone
	} else if ev.Progress != nil {
		name = EventProgress
	}
	rd := NewEventReader(bytes.NewReader(buf.Bytes()), buf.Len())
	f, err := rd.Next()
	if err != nil {
		t.Fatalf("written frame %q: %v", buf.Bytes(), err)
	}
	if !bytes.Equal(f.Raw, buf.Bytes()) || f.ID != strconv.FormatInt(ev.Seq, 10) || f.Event != name || !bytes.Equal(f.Data, data) {
		t.Fatalf("frame %+v read back from %q", f, buf.Bytes())
	}
	var got, want JobEvent
	if err := json.Unmarshal(f.Data, &got); err != nil {
		t.Fatal(err)
	}
	if json.Unmarshal(data, &want); exact {
		want = *ev
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("event read back as %+v, want %+v", got, want)
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("after the frame: %v, want io.EOF", err)
	}
	if _, err := NewEventReader(bytes.NewReader(buf.Bytes()), buf.Len()-1).Next(); err != ErrFrameTooLarge {
		t.Fatalf("one byte under the frame's size: %v, want ErrFrameTooLarge", err)
	}
}
