#ifndef PSTORE_TRACE_TRACE_IO_H_
#define PSTORE_TRACE_TRACE_IO_H_

#include <string>

#include "common/status.h"
#include "common/time_series.h"

namespace pstore {

// Saves a load trace as a two-column CSV: header "slot,value", then one
// row per slot. The slot duration is recorded in a leading comment line
// ("# slot_seconds=60") so that LoadTraceCsv can round-trip it.
Status SaveTraceCsv(const TimeSeries& trace, const std::string& path);

// Loads a trace written by SaveTraceCsv. Also accepts plain two-column
// CSVs without the comment line, in which case the slot duration defaults
// to 60 seconds. Every data row must read in full as `slot,value`, with
// slots counting up by one from 0; the only other rows allowed are `#`
// comments, blank lines and one header row before the first data row.
// Anything else, a slot duration that is not finite and positive, or a
// load that is not finite or is negative, is InvalidArgument naming the
// line.
StatusOr<TimeSeries> LoadTraceCsv(const std::string& path);

}  // namespace pstore

#endif  // PSTORE_TRACE_TRACE_IO_H_
