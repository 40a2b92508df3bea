// Chunk-table file format: interoperate with real encodings.
//
// A DASH/HLS packager knows the exact byte size of every segment at every
// rendition; exporting that as CSV lets this library replay real titles
// instead of synthetic ones. Format:
//
//   # bba chunk table: chunk_duration_s=4
//   rate_bps,235000,375000,...            (header: ladder)
//   chunk,<size bits at rate 0>,<size bits at rate 1>,...
//   0,940000,1500000,...
//   1,912000,1460000,...
//
// '#' lines are comments. Sizes are bits (not bytes) for consistency with
// the rest of the library.
#pragma once

#include <optional>
#include <string>

#include "media/video.hpp"

namespace bba::media {

/// Writes `video`'s ladder + chunk table to `path`. Returns false on I/O
/// failure.
bool write_chunk_table_csv(const std::string& path, const Video& video);

/// Reads a video (named `name`) back from `path`. Returns nullopt on I/O
/// failure or malformed content (non-positive sizes, ragged rows,
/// unsorted/duplicate ladder rates, missing chunks), and on a table no ABR
/// here can play: fewer than 2 rates, or a mean chunk size at R_max not
/// above the one at R_min.
std::optional<Video> read_chunk_table_csv(const std::string& path,
                                          std::string name);

}  // namespace bba::media
