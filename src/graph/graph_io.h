// Compact binary serialization of heterogeneous graphs (paper Sec. VI: the
// graph generator writes graphs as "compact binary-format files" into HDFS
// for the graph engine to load). Format: little-endian, versioned header,
// node sections (types, contents, slots) then the edge list; the CSR and
// alias tables are rebuilt on load.
#ifndef ZOOMER_GRAPH_GRAPH_IO_H_
#define ZOOMER_GRAPH_GRAPH_IO_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "graph/hetero_graph.h"

namespace zoomer {
namespace graph {

/// Writes the graph to `path`. Overwrites existing files.
Status SaveGraph(const HeteroGraph& g, const std::string& path);

/// Loads a graph written by SaveGraph. Validates magic, version, and
/// structural invariants before returning.
StatusOr<HeteroGraph> LoadGraph(const std::string& path);

/// Writes one checkpoint segment file: header (magic, version, payload
/// CRC-32, payload size) followed by the segment's raw arrays. The alias
/// tables are NOT serialized — they rebuild deterministically from the
/// stored weights, in order, so a loaded segment samples bit-identically.
Status SaveCsrSegment(const CsrSegment& seg, const std::string& path);

/// Loads a segment written by SaveCsrSegment. Verifies the CRC and every
/// structural invariant (offset monotonicity, typed sub-range bounds, enum
/// ranges) before returning — a truncated or corrupted file yields a clear
/// Status, never a partially valid segment.
StatusOr<std::shared_ptr<const CsrSegment>> LoadCsrSegment(
    const std::string& path);

}  // namespace graph
}  // namespace zoomer

#endif  // ZOOMER_GRAPH_GRAPH_IO_H_
