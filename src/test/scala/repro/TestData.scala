package repro

import scala.util.Random

/** Shared serial-side test data generators (no Spark needed). */
object TestData {

  /** Uniform noise points in [0, 100]^d. */
  def uniform(n: Int, d: Int, seed: Long): Array[Array[Double]] = {
    val rnd = new Random(seed)
    Array.fill(n)(Array.fill(d)(rnd.nextDouble() * 100))
  }

  /** Gaussian blobs around `centers` hotspots — clusterable data where the
    * pruning mechanisms actually fire.
    */
  def blobs(n: Int, d: Int, centers: Int, spread: Double, seed: Long): Array[Array[Double]] = {
    val rnd = new Random(seed)
    val cs = Array.fill(centers)(Array.fill(d)(rnd.nextDouble() * 100))
    Array.fill(n) {
      val c = cs(rnd.nextInt(centers))
      Array.tabulate(d)(i => c(i) + rnd.nextGaussian() * spread)
    }
  }

  /** Points drawn uniformly from the integer grid {0, …, side − 1}²: many
    * duplicate points, duplicate initial centroids and exact distance ties.
    */
  def grid(n: Int, side: Int, seed: Long): Array[Array[Double]] = {
    val rnd = new Random(seed)
    Array.fill(n)(Array(rnd.nextInt(side).toDouble, rnd.nextInt(side).toDouble))
  }
}
