// Loading rating datasets from delimited text files.
//
// Accepts the common "user<delim>item<delim>rating[<delim>timestamp]"
// layout used by MovieLens (::), MovieTweetings (::), and CSV exports.
// External user/item ids (arbitrary integers or strings) are remapped to
// dense 0-based ids; the mapping is returned for round-tripping.

#ifndef GANC_DATA_LOADER_H_
#define GANC_DATA_LOADER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "data/dataset.h"
#include "util/flags.h"
#include "util/status.h"

namespace ganc {

/// A loaded dataset plus the external-id dictionaries.
struct LoadedDataset {
  RatingDataset dataset;
  std::vector<std::string> user_ids;  ///< dense id -> external user id
  std::vector<std::string> item_ids;  ///< dense id -> external item id
};

/// Options for LoadRatingsFile.
struct LoaderOptions {
  char delimiter = ',';
  bool skip_header = false;
  /// Columns (0-based) holding user, item, and rating.
  int user_column = 0;
  int item_column = 1;
  int rating_column = 2;
  /// Optional affine remap applied to raw rating values, e.g. the paper's
  /// MovieTweetings 0..10 -> [1, 5] mapping uses scale=0.4, offset=1.
  double rating_scale = 1.0;
  double rating_offset = 0.0;
  /// Duplicate (user,item) pairs: keep the last occurrence when true,
  /// otherwise fail.
  bool keep_last_duplicate = true;
};

/// Loads a delimited ratings file. Malformed rows produce an error status
/// naming the line.
Result<LoadedDataset> LoadRatingsFile(const std::string& path,
                                      const LoaderOptions& options);

/// Writes a dataset as "user,item,rating" rows with dense ids (a simple
/// interchange/export helper for the examples).
Status SaveRatingsFile(const RatingDataset& dataset, const std::string& path,
                       char delimiter = ',');

/// The shared data-source resolution of the command-line tools
/// (`ganc_cli`, `ganc_serve`): exactly one of
///   --dataset-cache=PATH   binary CSR cache (conflicts with the others)
///   --ratings-file=PATH    delimited text (--delimiter, --skip-header)
///   --dataset=NAME         synthetic preset (ml100k ml1m ml10m mt200k
///                          netflix tiny); the default, NAME ml100k
/// One implementation so a serving process can never resolve the same
/// flags to different data than the training run did.
///
/// A --dataset-cache is opened as a zero-copy file mapping (rows
/// resident on demand). Callers that score immediately should
/// EnsureResident().
Result<RatingDataset> LoadDatasetFromFlags(const Flags& flags);

}  // namespace ganc

#endif  // GANC_DATA_LOADER_H_
