"""Topic-level misclassification profiling for binary text classifiers.

The toolkit explains *why* a spam/phishing classifier gets messages wrong:
per-message SHAP attributions are split into class-polarity supports,
clustered into topics with nonnegative matrix factorization, and every
message is scored by the Jensen-Shannon divergence between its topic
distribution and the profile of the reliably classified group it claims
to belong to.  The score works as a stand-alone misclassification
detector and as a repair layer that re-accepts messages rejected by
output-probability uncertainty detectors.
"""

__version__ = "0.1.0"

# numpy's BLAS runs one thread when each of these is 1 as numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
