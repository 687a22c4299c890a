package perfbench

import java.io.File
import java.nio.file.{Files, StandardCopyOption}

import org.scalatest.funsuite.AnyFunSuite

import repro.core.KMeans

import scala.util.Random

class ReferenceSpec extends AnyFunSuite {

  private def data(seed: Long): Array[Array[Double]] = {
    val rnd = new Random(seed)
    Array.fill(1_500)(Array.fill(3)(rnd.nextDouble() * 50))
  }

  private def freshDir(): File = {
    val parent = new File("perfbench/target/test-work").toPath.toAbsolutePath
    Files.createDirectories(parent)
    Files.createTempDirectory(parent, "refcache").toFile
  }

  test("a stored reference is reused only for the same data, init and maxIters") {
    val dir = freshDir()
    val xs = data(1)
    val init = KMeans.initCentroids(xs, 8, seed = 3L)

    val (r1, hit1) = Reference.getOrCompute(dir, xs, init, 6)
    assert(!hit1)
    val (r2, hit2) = Reference.getOrCompute(dir, xs, init, 6)
    assert(hit2 && r2.lloydS == r1.lloydS)
    assert(java.util.Arrays.equals(r2.assignments, r1.assignments) && Reference.close(r2.centroids, r1.centroids))

    // One coordinate of one point changes the digest: the cache misses.
    val moved = xs.map(_.clone()); moved(700)(1) += 1e-7
    assert(Reference.digest(moved, init, 6) != Reference.digest(xs, init, 6))
    assert(!Reference.getOrCompute(dir, moved, init, 6)._2)
    assert(!Reference.getOrCompute(dir, xs, init, 7)._2)
    assert(!Reference.getOrCompute(dir, xs, init.reverse, 6)._2)
    assert(dir.listFiles().count(_.getName.endsWith(".ref")) == 4)
  }

  test("a cache file whose recorded digest differs from its name is recomputed") {
    val dir = freshDir()
    val a = data(2); val b = data(3)
    val initA = KMeans.initCentroids(a, 5, seed = 1L); val initB = KMeans.initCentroids(b, 5, seed = 1L)
    Reference.getOrCompute(dir, a, initA, 4)
    val fileA = new File(dir, Reference.digest(a, initA, 4) + ".ref")
    val fileB = new File(dir, Reference.digest(b, initB, 4) + ".ref")
    Files.copy(fileA.toPath, fileB.toPath, StandardCopyOption.REPLACE_EXISTING)
    val (rb, hit) = Reference.getOrCompute(dir, b, initB, 4)
    assert(!hit)
    assert(java.util.Arrays.equals(rb.assignments, Reference.compute(b, initB, 4).assignments))
  }

  test("matches: assignments bitwise, centroids within 1e-9 relative, weights as cluster sizes") {
    val xs = data(4)
    val ref = Reference.compute(xs, KMeans.initCentroids(xs, 6, seed = 2L), 5)
    val cs = ref.centroids.map(_.clone())
    assert(ref.matches(cs, ref.assignments.clone()))
    cs(2)(0) += 1e-12
    assert(ref.matches(cs, ref.assignments))
    cs(2)(0) += 1e-3
    assert(!ref.matches(cs, ref.assignments))
    val as = ref.assignments.clone(); as(0) = (as(0) + 1) % 6
    assert(!ref.matches(ref.centroids, as))
    assert(ref.sizes.sum == xs.length)
    assert(ref.matchesWeights(ref.centroids, ref.sizes.clone()))
    val ws = ref.sizes.clone(); ws(0) += 1; ws(1) -= 1
    assert(!ref.matchesWeights(ref.centroids, ws))
  }
}
