/**
 * @file
 * Implementation of the special functions.
 */

#include "stats/special_functions.hh"

#include <cmath>
#include <limits>

#include "util/lgamma.hh"
#include "util/logging.hh"

namespace qdel {
namespace stats {

namespace {

constexpr double kEpsilon = 1e-15;
constexpr int kMaxIterations = 500;

/**
 * Continued fraction for the incomplete beta function (modified Lentz),
 * valid and fast for x < (a + 1) / (a + b + 2).
 */
double
betaContinuedFraction(double a, double b, double x)
{
    const double tiny = 1e-300;
    double qab = a + b;
    double qap = a + 1.0;
    double qam = a - 1.0;
    double c = 1.0;
    double d = 1.0 - qab * x / qap;
    if (std::fabs(d) < tiny)
        d = tiny;
    d = 1.0 / d;
    double h = d;
    for (int m = 1; m <= kMaxIterations; ++m) {
        int m2 = 2 * m;
        double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if (std::fabs(d) < tiny)
            d = tiny;
        c = 1.0 + aa / c;
        if (std::fabs(c) < tiny)
            c = tiny;
        d = 1.0 / d;
        h *= d * c;
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if (std::fabs(d) < tiny)
            d = tiny;
        c = 1.0 + aa / c;
        if (std::fabs(c) < tiny)
            c = tiny;
        d = 1.0 / d;
        double del = d * c;
        h *= del;
        if (std::fabs(del - 1.0) < kEpsilon)
            break;
    }
    return h;
}

} // namespace

double
logGamma(double x)
{
    return logGammaReentrant(x);
}

double
logBeta(double a, double b)
{
    return logGammaReentrant(a) + logGammaReentrant(b) -
           logGammaReentrant(a + b);
}

double
incompleteBeta(double a, double b, double x)
{
    if (!(a > 0.0) || !(b > 0.0))
        panic("incompleteBeta: non-positive shape (a=", a, ", b=", b, ")");
    if (x <= 0.0)
        return 0.0;
    if (x >= 1.0)
        return 1.0;

    const double log_front =
        a * std::log(x) + b * std::log1p(-x) - logBeta(a, b);
    const double front = std::exp(log_front);

    if (x < (a + 1.0) / (a + b + 2.0))
        return front * betaContinuedFraction(a, b, x) / a;
    return 1.0 - front * betaContinuedFraction(b, a, 1.0 - x) / b;
}

double
incompleteGammaLower(double a, double x)
{
    if (!(a > 0.0))
        panic("incompleteGammaLower: non-positive shape a=", a);
    if (x <= 0.0)
        return 0.0;

    if (x < a + 1.0) {
        // Series representation.
        double ap = a;
        double sum = 1.0 / a;
        double del = sum;
        for (int i = 0; i < kMaxIterations; ++i) {
            ap += 1.0;
            del *= x / ap;
            sum += del;
            if (std::fabs(del) < std::fabs(sum) * kEpsilon)
                break;
        }
        return sum * std::exp(-x + a * std::log(x) - logGamma(a));
    }

    // Continued fraction for Q(a, x), then complement.
    const double tiny = 1e-300;
    double b = x + 1.0 - a;
    double c = 1.0 / tiny;
    double d = 1.0 / b;
    double h = d;
    for (int i = 1; i <= kMaxIterations; ++i) {
        double an = -static_cast<double>(i) * (i - a);
        b += 2.0;
        d = an * d + b;
        if (std::fabs(d) < tiny)
            d = tiny;
        c = b + an / c;
        if (std::fabs(c) < tiny)
            c = tiny;
        d = 1.0 / d;
        double del = d * c;
        h *= del;
        if (std::fabs(del - 1.0) < kEpsilon)
            break;
    }
    double q = std::exp(-x + a * std::log(x) - logGamma(a)) * h;
    return 1.0 - q;
}

double
incompleteGammaUpper(double a, double x)
{
    return 1.0 - incompleteGammaLower(a, x);
}

double
normalCdf(double x)
{
    return 0.5 * std::erfc(-x * M_SQRT1_2);
}

double
normalPdf(double x)
{
    static const double inv_sqrt_2pi = 0.3989422804014327;
    return inv_sqrt_2pi * std::exp(-0.5 * x * x);
}

double
normalQuantile(double p)
{
    // Wichura (1988), Algorithm AS 241, routine PPND16.
    if (p <= 0.0)
        return -std::numeric_limits<double>::infinity();
    if (p >= 1.0)
        return std::numeric_limits<double>::infinity();

    static const double a[8] = {
        3.3871328727963666080e0,  1.3314166789178437745e2,
        1.9715909503065514427e3,  1.3731693765509461125e4,
        4.5921953931549871457e4,  6.7265770927008700853e4,
        3.3430575583588128105e4,  2.5090809287301226727e3,
    };
    static const double b[8] = {
        1.0,                      4.2313330701600911252e1,
        6.8718700749205790830e2,  5.3941960214247511077e3,
        2.1213794301586595867e4,  3.9307895800092710610e4,
        2.8729085735721942674e4,  5.2264952788528545610e3,
    };
    static const double c[8] = {
        1.42343711074968357734e0, 4.63033784615654529590e0,
        5.76949722146069140550e0, 3.64784832476320460504e0,
        1.27045825245236838258e0, 2.41780725177450611770e-1,
        2.27238449892691845833e-2, 7.74545014278341407640e-4,
    };
    static const double d[8] = {
        1.0,                      2.05319162663775882187e0,
        1.67638483018380384940e0, 6.89767334985100004550e-1,
        1.48103976427480074590e-1, 1.51986665636164571966e-2,
        5.47593808499534494600e-4, 1.05075007164441684324e-9,
    };
    static const double e[8] = {
        6.65790464350110377720e0, 5.46378491116411436990e0,
        1.78482653991729133580e0, 2.96560571828504891230e-1,
        2.65321895265761230930e-2, 1.24266094738807843860e-3,
        2.71155556874348757815e-5, 2.01033439929228813265e-7,
    };
    static const double f[8] = {
        1.0,                      5.99832206555887937690e-1,
        1.36929880922735805310e-1, 1.48753612908506148525e-2,
        7.86869131145613259100e-4, 1.84631831751005468180e-5,
        1.42151175831644588870e-7, 2.04426310338993978564e-15,
    };

    auto poly = [](const double (&coef)[8], double r) {
        double result = coef[7];
        for (int i = 6; i >= 0; --i)
            result = result * r + coef[i];
        return result;
    };

    const double q = p - 0.5;
    if (std::fabs(q) <= 0.425) {
        const double r = 0.180625 - q * q;
        return q * poly(a, r) / poly(b, r);
    }

    double r = q < 0.0 ? p : 1.0 - p;
    r = std::sqrt(-std::log(r));
    double value;
    if (r <= 5.0) {
        r -= 1.6;
        value = poly(c, r) / poly(d, r);
    } else {
        r -= 5.0;
        value = poly(e, r) / poly(f, r);
    }
    return q < 0.0 ? -value : value;
}

double
binomialCdf(long long k, long long n, double p)
{
    if (n < 1)
        panic("binomialCdf: n must be >= 1, got ", n);
    if (p < 0.0 || p > 1.0)
        panic("binomialCdf: p out of [0,1]: ", p);
    if (k < 0)
        return 0.0;
    if (k >= n)
        return 1.0;
    if (p <= 0.0)
        return 1.0;
    if (p >= 1.0)
        return 0.0;
    return incompleteBeta(static_cast<double>(n - k),
                          static_cast<double>(k + 1), 1.0 - p);
}

double
binomialLogPmf(long long k, long long n, double p)
{
    if (k < 0 || k > n)
        return -std::numeric_limits<double>::infinity();
    if (p <= 0.0)
        return k == 0 ? 0.0 : -std::numeric_limits<double>::infinity();
    if (p >= 1.0)
        return k == n ? 0.0 : -std::numeric_limits<double>::infinity();
    const double dn = static_cast<double>(n);
    const double dk = static_cast<double>(k);
    return logGamma(dn + 1.0) - logGamma(dk + 1.0) - logGamma(dn - dk + 1.0)
           + dk * std::log(p) + (dn - dk) * std::log1p(-p);
}

} // namespace stats
} // namespace qdel
